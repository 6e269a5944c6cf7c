package vehicle

import (
	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/edgeset"
)

// BitRate250k is the 250 kb/s J1939 bus rate of both test vehicles.
const BitRate250k = 250e3

// NewVehicleA builds the Vehicle A stand-in: five ECUs with visually
// distinct voltage profiles (Figure 4.2), captured at 20 MS/s and
// 16 bits. ECUs 1 and 4 are the closest pair — the paper's foreign-
// imitation candidates — with ECUs 0 and 1 the next closest under
// Euclidean distance. ECUs 0 (the engine-mounted ECM) and 2 carry
// strong temperature coefficients, reproducing the sharp distance
// growth of Figure 4.6.
func NewVehicleA() *Vehicle {
	adc := analog.ADC{SampleRate: 20e6, Bits: 16, MinVolts: -5, MaxVolts: 5}
	mk := func(name string, vDom, tauRise, tauFall, overshoot, ringFreq, tempCoV, tempCoTau float64) *analog.Transceiver {
		return &analog.Transceiver{
			Name: name, VDom: vDom, VRec: 0.015,
			TauRise: tauRise, TauFall: tauFall,
			OvershootAmp: overshoot, UndershootAmp: overshoot * 0.7,
			RingFreq: ringFreq, RingTau: 550e-9,
			NoiseSigma: 0.005, EdgeJitterSigma: 3e-9,
			BurstProb: 0.01, BurstScale: 2.5,
			TempCoVDom: tempCoV, TempCoTau: tempCoTau, SupplyCoVDom: 0.004,
			NominalTempC: 25, NominalSupplyV: 12.6,
		}
	}
	spec := func(prio uint8, pgn canbus.PGN, sa canbus.SourceAddress, periodMS float64, n int) MessageSpec {
		return MessageSpec{ID: canbus.J1939ID{Priority: prio, PGN: pgn, SA: sa}, PeriodMS: periodMS, DataLen: n}
	}
	return &Vehicle{
		Name: "vehicle-a", BitRate: BitRate250k, ADC: adc, LeadIdleBits: 3,
		ECUs: []*ECU{
			{
				Name:         "ECU0-ECM",
				ClockSkewPPM: 38,
				Transceiver:  mk("A/ECM", 1.90, 110e-9, 135e-9, 0.28, 2.2e6, -0.60e-3, 0.8e-3),
				Messages: []MessageSpec{
					spec(3, canbus.PGNElectronicEngine1, canbus.SAEngine, 20, 8),
					spec(3, canbus.PGNElectronicEngine2, canbus.SAEngine, 50, 8),
					spec(6, canbus.PGNEngineTemperature, canbus.SAEngine, 1000, 8),
					spec(6, canbus.PGNFuelEconomy, canbus.SAEngine, 100, 8),
				},
			},
			{
				Name:         "ECU1-Transmission",
				ClockSkewPPM: -84,
				Transceiver:  mk("A/TCM", 2.000, 100e-9, 120e-9, 0.30, 2.60e6, -0.10e-3, 0.15e-3),
				Messages: []MessageSpec{
					spec(3, canbus.PGNTransmission1, canbus.SATransmission, 20, 8),
					spec(6, canbus.PGNVehicleWeight, canbus.SATransmission, 1000, 8),
				},
			},
			{
				Name:         "ECU2-Brakes",
				ClockSkewPPM: 122,
				Transceiver:  mk("A/EBC", 2.45, 150e-9, 180e-9, 0.34, 1.8e6, -0.50e-3, 0.7e-3),
				Messages: []MessageSpec{
					spec(6, canbus.PGNBrakes, canbus.SABrakes, 100, 8),
					spec(6, canbus.PGNCruiseControl, canbus.SABrakes, 100, 8),
				},
			},
			{
				Name:         "ECU3-Body",
				ClockSkewPPM: -15,
				Transceiver:  mk("A/BCM", 2.25, 120e-9, 145e-9, 0.26, 3.1e6, -0.12e-3, 0.15e-3),
				Messages: []MessageSpec{
					spec(6, canbus.PGNDashDisplay, canbus.SABodyController, 200, 8),
					spec(6, canbus.PGNAmbientConditions, canbus.SABodyController, 500, 8),
					spec(6, canbus.PGNCabMessage1, canbus.SABodyController, 50, 8),
				},
			},
			{
				Name:         "ECU4-Cab",
				ClockSkewPPM: 67,
				Transceiver:  mk("A/CAB", 2.060, 100e-9, 120e-9, 0.30, 2.60e6, -0.08e-3, 0.12e-3),
				Messages: []MessageSpec{
					spec(6, canbus.PGNCabMessage1, canbus.SACabController, 50, 8),
					spec(6, canbus.PGNDashDisplay, canbus.SACabController, 200, 8),
				},
			},
		},
	}
}

// NewVehicleB builds the Vehicle B stand-in: ten ECUs whose voltage
// profiles were drawn from a much tighter distribution than Vehicle
// A's, captured at 10 MS/s and 12 bits. Several pairs differ by only a
// few millivolts of dominant level and a few nanoseconds of rise time,
// which is what degrades the Euclidean metric in Table 4.2 while
// Mahalanobis distance (Table 4.4) still separates them through the
// edge-shape correlations.
func NewVehicleB() *Vehicle {
	adc := analog.ADC{SampleRate: 10e6, Bits: 12, MinVolts: -5, MaxVolts: 5}
	mk := func(name string, vDom, vRec, tauRise, ringFreq float64) *analog.Transceiver {
		return &analog.Transceiver{
			Name: name, VDom: vDom, VRec: vRec,
			TauRise: tauRise, TauFall: tauRise * 1.25,
			OvershootAmp: 0.13, UndershootAmp: 0.09,
			RingFreq: ringFreq, RingTau: 240e-9,
			NoiseSigma: 0.005, EdgeJitterSigma: 3e-9,
			BurstProb: 0.01, BurstScale: 2.5,
			TempCoVDom: -0.15e-3, TempCoTau: 0.2e-3, SupplyCoVDom: 0.004,
			NominalTempC: 25, NominalSupplyV: 12.6,
		}
	}
	spec := func(prio uint8, pgn canbus.PGN, sa canbus.SourceAddress, periodMS float64, n int) MessageSpec {
		return MessageSpec{ID: canbus.J1939ID{Priority: prio, PGN: pgn, SA: sa}, PeriodMS: periodMS, DataLen: n}
	}
	ecu := func(name string, tx *analog.Transceiver, specs ...MessageSpec) *ECU {
		return &ECU{Name: name, Transceiver: tx, Messages: specs}
	}
	return &Vehicle{
		Name: "vehicle-b", BitRate: BitRate250k, ADC: adc, LeadIdleBits: 3,
		ECUs: []*ECU{
			ecu("B0", mk("B/0", 2.000, 0.010, 300e-9, 2.4e6),
				spec(3, canbus.PGNElectronicEngine1, 0x00, 20, 8),
				spec(6, canbus.PGNEngineTemperature, 0x00, 1000, 8)),
			ecu("B1", mk("B/1", 2.016, 0.016, 340e-9, 2.4e6), // 16 mV from B0: first tight pair
				spec(3, canbus.PGNTransmission1, 0x03, 25, 8)),
			ecu("B2", mk("B/2", 2.055, 0.011, 285e-9, 2.7e6),
				spec(6, canbus.PGNBrakes, 0x0B, 40, 8)),
			ecu("B3", mk("B/3", 2.088, 0.013, 352e-9, 2.1e6), // well separated from B2
				spec(6, canbus.PGNCruiseControl, 0x13, 40, 8)),
			ecu("B4", mk("B/4", 2.124, 0.012, 322e-9, 2.5e6),
				spec(6, canbus.PGNDashDisplay, 0x17, 40, 8)),
			ecu("B5", mk("B/5", 2.140, 0.018, 360e-9, 2.5e6), // 16 mV from B4: second tight pair
				spec(6, canbus.PGNCabMessage1, 0x21, 40, 8)),
			ecu("B6", mk("B/6", 2.178, 0.010, 295e-9, 2.8e6),
				spec(6, canbus.PGNAmbientConditions, 0x19, 80, 8),
				spec(6, canbus.PGNVehicleWeight, 0x19, 200, 8)),
			ecu("B7", mk("B/7", 2.210, 0.014, 368e-9, 2.0e6),
				spec(6, canbus.PGNFuelEconomy, 0x31, 40, 8)),
			ecu("B8", mk("B/8", 2.262, 0.012, 315e-9, 2.6e6),
				spec(3, canbus.PGNElectronicEngine2, 0x2A, 40, 8)),
			ecu("B9", mk("B/9", 2.296, 0.011, 303e-9, 2.6e6), // well separated from B8
				spec(6, canbus.PGNCabMessage1, 0x35, 40, 8)),
		},
	}
}

// NewSterlingActerra builds the two-ECU 2006 Sterling Acterra stand-in
// used by the paper's illustrative figures: Figure 2.5 (two visibly
// distinct edge-set bundles), Figure 3.1 (rate/resolution reduction on
// one edge set), Figure 4.4 (per-sample-index standard deviation) and
// Figure 4.5 / Table 4.5 (distance quotient comparison). 250 kb/s bus
// sampled at 10 MS/s and 16 bits.
func NewSterlingActerra() *Vehicle {
	adc := analog.ADC{SampleRate: 10e6, Bits: 16, MinVolts: -5, MaxVolts: 5}
	mk := func(name string, vDom, tauRise, overshoot, ringFreq float64) *analog.Transceiver {
		return &analog.Transceiver{
			Name: name, VDom: vDom, VRec: 0.014,
			TauRise: tauRise, TauFall: tauRise * 1.2,
			OvershootAmp: overshoot, UndershootAmp: overshoot * 0.7,
			RingFreq: ringFreq, RingTau: 550e-9,
			NoiseSigma: 0.005, EdgeJitterSigma: 3e-9,
			BurstProb: 0.01, BurstScale: 2.5,
			TempCoVDom: -0.3e-3, TempCoTau: 0.4e-3, SupplyCoVDom: 0.004,
			NominalTempC: 25, NominalSupplyV: 12.6,
		}
	}
	spec := func(prio uint8, pgn canbus.PGN, sa canbus.SourceAddress, periodMS float64, n int) MessageSpec {
		return MessageSpec{ID: canbus.J1939ID{Priority: prio, PGN: pgn, SA: sa}, PeriodMS: periodMS, DataLen: n}
	}
	return &Vehicle{
		Name: "sterling-acterra", BitRate: BitRate250k, ADC: adc, LeadIdleBits: 3,
		ECUs: []*ECU{
			{
				Name:         "ECU0-ECM",
				ClockSkewPPM: 38,
				Transceiver:  mk("S/ECM", 2.05, 180e-9, 0.30, 2.3e6),
				Messages: []MessageSpec{
					spec(3, canbus.PGNElectronicEngine1, canbus.SAEngine, 20, 8),
					spec(6, canbus.PGNEngineTemperature, canbus.SAEngine, 100, 8),
				},
			},
			{
				Name:        "ECU1-Body",
				Transceiver: mk("S/BCM", 2.28, 260e-9, 0.18, 3.0e6),
				Messages: []MessageSpec{
					spec(6, canbus.PGNCabMessage1, canbus.SABodyController, 25, 8),
					spec(6, canbus.PGNDashDisplay, canbus.SABodyController, 100, 8),
				},
			},
		},
	}
}

// ExtractionConfig returns the edge-set extraction parameters matched
// to the vehicle's digitizer (edgeset.ConfigFor).
func (v *Vehicle) ExtractionConfig() edgeset.Config { return edgeset.ConfigFor(v.ADC, v.BitRate) }

// ForeignDevice returns a transceiver for the foreign-intruder threat
// model: an attacker-built node tuned to imitate the victim ECU's
// waveform. Matching within a few percent of level and rise time is
// about the best an attacker can do with off-the-shelf hardware
// (Section 2.2.1: the manufacturing variation is "practically
// impossible ... to imitate"); the residual mismatch sits well inside
// the victim's Euclidean threshold — which edge-sampling variance
// dominates — yet stands out by many whitened standard deviations
// under Mahalanobis distance, the Table 4.1(c) versus Table 4.3(c)
// contrast.
func ForeignDevice(victim *analog.Transceiver) *analog.Transceiver {
	clone := *victim
	clone.Name = victim.Name + "/foreign"
	clone.VDom += 0.008 // 8 mV steady-state bias
	clone.VRec += 0.003
	clone.TauRise *= 1.06 // 6 % slower edge
	clone.TauFall *= 1.05
	clone.OvershootAmp *= 0.9
	clone.EdgeJitterSigma *= 1.3
	return &clone
}

// GenerateForeign renders traffic from a foreign device that claims
// the source addresses of the imitated ECU. The messages carry
// ECUIndex −1 (ground-truth foreign).
func (v *Vehicle) GenerateForeign(imposter *analog.Transceiver, imitated *ECU, cfg GenConfig) (*Capture, error) {
	fake := &Vehicle{
		Name: v.Name + "/foreign", BitRate: v.BitRate, ADC: v.ADC, LeadIdleBits: v.LeadIdleBits,
		ECUs: []*ECU{{Name: imposter.Name, Transceiver: imposter, Messages: imitated.Messages}},
	}
	cap, err := fake.Generate(cfg)
	if err != nil {
		return nil, err
	}
	for i := range cap.Messages {
		cap.Messages[i].ECUIndex = -1
	}
	cap.Vehicle = v.Name
	return cap, nil
}
