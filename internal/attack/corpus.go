// The attack corpus: a versioned registry of named, seeded scenarios
// that generate reproducible labelled captures. A corpus entry is the
// unit the arena sweep and the CI detection-quality gate agree on —
// the same (scenario, seed, size) triple must produce a bit-identical
// capture and ground-truth labels file on every machine, so a TPR
// change in CI is a detector change, never a workload change.

package attack

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// CorpusVersion stamps generated corpora and their labels files. Bump
// it whenever a change to the attack package alters the byte stream a
// (scenario, seed, size) triple produces — the detection gate refuses
// to compare reports across corpus versions.
const CorpusVersion = 1

// ScenarioSpec is one named entry of the corpus registry.
type ScenarioSpec struct {
	// Name is the stable identifier (`tracegen -scenario <name>`).
	Name string
	// Desc is a one-line description for listings.
	Desc string

	Kind        Kind
	AttackerECU int
	VictimECU   int
	Rate        float64
	Fidelity    float64
}

// scenarios is the registry, ordered for display. ECU indices stay
// below five so every spec is valid on all simulated vehicles.
var scenarios = []ScenarioSpec{
	{Name: "clean", Desc: "unmodified traffic (the control row)", Kind: None},
	{Name: "hijack", Desc: "compromised ECU injects frames under a victim's address with its own hardware", Kind: Hijack, AttackerECU: 2, VictimECU: 1, Rate: 0.2},
	{Name: "foreign", Desc: "attached COTS device imitates a victim within ordinary transceiver tolerance", Kind: Foreign, VictimECU: 1, Rate: 0.2},
	{Name: "flood", Desc: "compromised ECU salvoes duplicates of a victim's frames (masquerade flood)", Kind: Flood, AttackerECU: 3, VictimECU: 1, Rate: 4},
	{Name: "suspension", Desc: "one ECU silenced entirely; only absence betrays it", Kind: Suspension, VictimECU: 2},
	{Name: "mimic-low", Desc: "adaptive attacker at 25% profile fidelity", Kind: Mimic, AttackerECU: 2, VictimECU: 1, Rate: 0.2, Fidelity: 0.25},
	{Name: "mimic-mid", Desc: "adaptive attacker at 60% profile fidelity", Kind: Mimic, AttackerECU: 2, VictimECU: 1, Rate: 0.2, Fidelity: 0.6},
	{Name: "mimic-high", Desc: "adaptive attacker at 90% profile fidelity", Kind: Mimic, AttackerECU: 2, VictimECU: 1, Rate: 0.2, Fidelity: 0.9},
	{Name: "mimic-perfect", Desc: "adaptive attacker at 100% profile fidelity — the voltage layer's blind spot", Kind: Mimic, AttackerECU: 2, VictimECU: 1, Rate: 0.2, Fidelity: 1},
	{Name: "collusion", Desc: "two compromised ECUs: one transmits on the other's schedule under its address", Kind: Collusion, AttackerECU: 3, VictimECU: 1},
	{Name: "poison", Desc: "profile poisoning: injected frames ramp from near-perfect mimicry toward the attacker's signature", Kind: Poison, AttackerECU: 2, VictimECU: 1, Rate: 0.2, Fidelity: 0.7},
}

// Scenarios returns the registry in display order. The slice is a
// copy; mutating it does not affect the registry.
func Scenarios() []ScenarioSpec {
	out := make([]ScenarioSpec, len(scenarios))
	copy(out, scenarios)
	return out
}

// ScenarioNames returns the registered names in display order.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// ErrUnknownScenario marks a lookup of an unregistered scenario name —
// a usage error, not a generation failure.
var ErrUnknownScenario = fmt.Errorf("attack: unknown scenario")

// ScenarioByName looks up a registry entry. The error of a failed
// lookup lists every known name.
func ScenarioByName(name string) (ScenarioSpec, error) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return ScenarioSpec{}, fmt.Errorf("%w %q (known scenarios: %s)",
		ErrUnknownScenario, name, strings.Join(ScenarioNames(), ", "))
}

// EffectiveSeed derives the scenario's generation seed from a base
// seed. The offset is a stable hash of the scenario name, so adding
// or reordering registry entries never changes the traffic an
// existing scenario produces for a given base seed.
func (s ScenarioSpec) EffectiveSeed(base int64) int64 {
	h := fnv.New32a()
	_, _ = io.WriteString(h, s.Name)
	return base + int64(h.Sum32()&0xffff)
}

// GenerateScenario renders the labelled message stream of a registry
// entry: n scheduled messages from v at the scenario's effective
// seed. The result is deterministic in (spec.Name, n, seed).
func GenerateScenario(v *vehicle.Vehicle, spec ScenarioSpec, n int, seed int64) ([]Message, error) {
	return Run(v, Scenario{
		Kind:        spec.Kind,
		AttackerECU: spec.AttackerECU,
		VictimECU:   spec.VictimECU,
		Rate:        spec.Rate,
		Fidelity:    spec.Fidelity,
		NumMessages: n,
		Seed:        spec.EffectiveSeed(seed),
	})
}

// WriteCorpus generates a scenario and streams it as a capture file,
// returning the ground-truth labels of what it wrote. The capture
// bytes and the labels are both deterministic in (spec, n, seed) —
// the repeatability contract the determinism test pins.
func WriteCorpus(w io.Writer, v *vehicle.Vehicle, spec ScenarioSpec, n int, seed int64) (*Labels, error) {
	msgs, err := GenerateScenario(v, spec, n, seed)
	if err != nil {
		return nil, err
	}
	return WriteMessages(w, v, spec, seed, msgs)
}

// WriteMessages streams messages GenerateScenario already rendered for
// (spec, seed) as a capture file and returns their ground-truth labels
// — WriteCorpus without the generation, for a caller that also scores
// the messages in memory.
func WriteMessages(w io.Writer, v *vehicle.Vehicle, spec ScenarioSpec, seed int64, msgs []Message) (*Labels, error) {
	tw, err := trace.NewWriter(w, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		return nil, err
	}
	labels := &Labels{
		Version:  CorpusVersion,
		Scenario: spec.Name,
		Kind:     spec.Kind.String(),
		Vehicle:  v.Name,
		Seed:     seed,
		Fidelity: spec.Fidelity,
		Records:  len(msgs),
	}
	for i, m := range msgs {
		if m.Injected {
			labels.Injected = append(labels.Injected, i)
		}
		err := tw.Write(&trace.Record{
			ECUIndex: int32(m.ECUIndex), TimeSec: m.TimeSec,
			FrameID: m.Frame.ID, Data: m.Frame.Data, Trace: m.Trace,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	sort.Ints(labels.Injected)
	return labels, nil
}
