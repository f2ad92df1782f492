package sim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/core"
	"evclimate/internal/drivecycle"
)

// TestCheckpointResumeBitExact is the property pin for state
// checkpointing: for every (cycle, controller) pair, snapshotting at a
// randomly chosen control step, JSON round-tripping the checkpoint
// through bytes (as the runner's checkpoint files do), and resuming on a
// fresh Runner and fresh controller instance reproduces the remaining
// trajectory bit for bit, ends with the same controller diagnostics (the
// MPC's solver counters, the supervisor's ladder log) — and the resumed
// result still satisfies the physical invariants.
func TestCheckpointResumeBitExact(t *testing.T) {
	cycles := []string{"ECE15", "UDDS", "US06"}
	controllers := []struct {
		name      string
		controlDt float64
		forecast  int
		make      func(t *testing.T) control.Controller
	}{
		{"On/Off", 1, 0, func(t *testing.T) control.Controller {
			return control.NewOnOff(hvacModel(t))
		}},
		{"Fuzzy-based", 1, 0, func(t *testing.T) control.Controller {
			return control.NewFuzzy(hvacModel(t))
		}},
		{"MPC", 5, core.DefaultConfig().Horizon, func(t *testing.T) control.Controller {
			c, err := core.New(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"Supervised MPC", 5, core.DefaultConfig().Horizon, func(t *testing.T) control.Controller {
			c, err := core.NewSupervised(core.SupervisedConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, cyc := range cycles {
		for _, ctor := range controllers {
			name := cyc + "/" + ctor.name
			t.Run(name, func(t *testing.T) {
				// Each row draws its random snapshot step from a seed of
				// its own name, so a failure reproduces exactly, also
				// when the row is rerun alone with -run.
				seed := fnv.New64a()
				seed.Write([]byte(name))
				rng := rand.New(rand.NewSource(20260806 ^ int64(seed.Sum64())))
				c, err := drivecycle.ByName(cyc)
				if err != nil {
					t.Fatal(err)
				}
				prof := c.Profile(1).WithAmbient(35).WithSolar(400).Truncate(240)
				cfg := DefaultConfig(prof)
				cfg.ControlDt = ctor.controlDt
				cfg.ForecastSteps = ctor.forecast
				steps := int(prof.Duration() / cfg.ControlDt)
				at := 1 + rng.Intn(steps-1)

				// Reference run, snapshotting once at the chosen step.
				r, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var ckBytes []byte
				refCtrl := ctor.make(t)
				ref, err := r.RunWith(refCtrl, RunOptions{
					CheckpointEvery: at,
					OnCheckpoint: func(ck *Checkpoint) error {
						if ckBytes == nil {
							ckBytes, err = json.Marshal(ck)
							return err
						}
						return nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if ckBytes == nil {
					t.Fatalf("no checkpoint emitted at step %d of %d", at, steps)
				}

				// Resume from the serialized checkpoint on fresh instances.
				var ck Checkpoint
				if err := json.Unmarshal(ckBytes, &ck); err != nil {
					t.Fatal(err)
				}
				if ck.Step != at {
					t.Fatalf("checkpoint at step %d, want %d", ck.Step, at)
				}
				r2, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				resCtrl := ctor.make(t)
				res, err := r2.RunWith(resCtrl, RunOptions{Resume: &ck})
				if err != nil {
					t.Fatalf("resume from step %d/%d: %v", at, steps, err)
				}

				refJSON, err := json.Marshal(ref)
				if err != nil {
					t.Fatal(err)
				}
				resJSON, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if string(refJSON) != string(resJSON) {
					t.Errorf("resume from step %d/%d diverges from uninterrupted run", at, steps)
				}
				switch c := refCtrl.(type) {
				case *core.Controller:
					if got, want := resCtrl.(*core.Controller).Stats(), c.Stats(); got != want {
						t.Errorf("resumed MPC stats %+v, uninterrupted %+v", got, want)
					}
				case *control.Supervisor:
					rs := resCtrl.(*control.Supervisor)
					if rs.Level() != c.Level() || !reflect.DeepEqual(rs.Transitions(), c.Transitions()) {
						t.Errorf("resumed ladder at level %d after %v, uninterrupted at %d after %v",
							rs.Level(), rs.Transitions(), c.Level(), c.Transitions())
					}
				}
				tol := DefaultTolerances()
				if cyc == "US06" {
					// Aggressive highway cycle: heavy regen loosens the
					// Peukert bookkeeping (same widening as the runner's
					// conformance suite).
					tol.EnergyClosureRel = 0.25
				}
				if err := CheckInvariants(cfg, res, tol); err != nil {
					t.Errorf("resumed result violates invariants: %v", err)
				}
			})
		}
	}
}

// TestRestorePrimesNextRun covers restoring through RunOptions.Resume:
// a checkpoint captured mid-run primes a later RunWith on a fresh
// Runner, and the resume refuses misuse (a checkpoint from another
// controller, a trace that does not match the step).
func TestRestorePrimesNextRun(t *testing.T) {
	cfg := DefaultConfig(hotProfile().Truncate(200))
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ck *Checkpoint
	ref, err := r.RunWith(control.NewOnOff(hvacModel(t)), RunOptions{
		CheckpointEvery: 60,
		OnCheckpoint: func(c *Checkpoint) error {
			if ck == nil {
				ck = c
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint emitted")
	}

	r2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.RunWith(control.NewOnOff(hvacModel(t)), RunOptions{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(ref)
	b, _ := json.Marshal(res)
	if string(a) != string(b) {
		t.Error("resumed run diverges from uninterrupted run")
	}

	// A checkpoint from one controller cannot resume another.
	if _, err := r2.RunWith(control.NewFuzzy(hvacModel(t)), RunOptions{Resume: ck}); err == nil {
		t.Error("On/Off checkpoint resumed a fuzzy controller")
	}
	// A checkpoint whose trace disagrees with its step is refused.
	bad := *ck
	bad.Step++
	if _, err := r2.RunWith(control.NewOnOff(hvacModel(t)), RunOptions{Resume: &bad}); err == nil {
		t.Error("checkpoint with a short trace resumed")
	}
	// A checkpoint of the previous schema is refused by its version.
	old := *ck
	old.Version = CheckpointVersion - 1
	want := fmt.Sprintf("checkpoint version %d, want %d", old.Version, CheckpointVersion)
	if _, err := r2.RunWith(control.NewOnOff(hvacModel(t)), RunOptions{Resume: &old}); err == nil ||
		!strings.Contains(err.Error(), want) {
		t.Errorf("version-%d checkpoint: got %v, want the version error", old.Version, err)
	}
}
