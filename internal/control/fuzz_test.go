package control

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParsePolicy throws arbitrary text at the YAML-subset policy
// parser. It may reject the text however it likes but must never
// panic, and every policy it accepts must hold buses the attach path
// would accept too: each spec passes ValidateSpec. Seeds beyond the
// one below live in testdata/fuzz/FuzzParsePolicy.
func FuzzParsePolicy(f *testing.F) {
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "model.vpm"), []byte("stub"), 0o644); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("defaults:\n  model: model.vpm\nbuses:\n  front:\n    listen: tcp://127.0.0.1:9700\n"))
	// batch is a removed key: it must fail validation.
	f.Add([]byte("defaults:\n  model: model.vpm\n  batch: 8\nbuses:\n  front:\n    listen: tcp://127.0.0.1:9700\n"))

	name := filepath.Join(dir, "fleet.yaml")
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePolicy(name, data)
		if err != nil {
			return
		}
		if len(p.Buses) == 0 {
			t.Fatal("accepted a policy with no buses")
		}
		for i := range p.Buses {
			spec := p.Buses[i]
			if err := ValidateSpec(&spec, p.Dir); err != nil {
				t.Fatalf("accepted bus %q fails attach validation: %v\npolicy:\n%s", spec.Bus, err, data)
			}
		}
	})
}
