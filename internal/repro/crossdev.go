package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/tuner"
)

// CrossDeviceResult is the extension study motivated by the paper's
// discussion ("more and more hardware platforms will be developed and
// used"): configurations tuned for one device are evaluated on every
// other device. Entry [i][j] is the GFLOPS achieved on device j by the
// configuration tuned on device i, as a percentage of the configuration
// tuned on device j itself (diagonal = 100).
type CrossDeviceResult struct {
	Devices  []string
	TaskName string
	Matrix   [][]float64
}

// CrossDevice tunes one representative MobileNet-v1 task per device with
// BTED+BAO and cross-evaluates the winners, quantifying how device-specific
// good deployment configurations are.
func CrossDevice(ctx context.Context, cfg Config, deviceNames []string) (*CrossDeviceResult, error) {
	if len(deviceNames) == 0 {
		deviceNames = []string{"gtx1080ti", "v100", "gtx1060", "jetsontx2"}
	}
	devices := make([]hwsim.Device, len(deviceNames))
	for i, n := range deviceNames {
		d, ok := hwsim.DeviceByName(n)
		if !ok {
			return nil, fmt.Errorf("repro: unknown device %q", n)
		}
		devices[i] = d
	}
	tasks, err := mobilenetTasks()
	if err != nil {
		return nil, err
	}
	task := tasks[4] // a mid-network pointwise conv: sensitive to balance

	// Tune per device. Any tuning failure — including an all-invalid run —
	// aborts: every later matrix entry needs a winner per device.
	best := make([]tuner.Result, len(devices))
	for i, d := range devices {
		cfg.progress("crossdev tuning on %s", d.Name)
		b := backend.Wrap(deviceNames[i], hwsim.NewSimulator(d, cfg.Seed+int64(i)))
		r, err := tuner.Tune(ctx, tuner.NewBTEDBAO(), task, b, tuner.Options{
			Budget:    cfg.Budget,
			EarlyStop: cfg.EarlyStop,
			PlanSize:  cfg.PlanSize,
			Seed:      cfg.Seed*7 + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("repro: tuning on %s: %w", d.Name, err)
		}
		best[i] = r
	}

	// Cross-evaluate with the noiseless estimator (we compare models, not
	// measurement luck).
	res := &CrossDeviceResult{TaskName: task.Name, Matrix: make([][]float64, len(devices))}
	for _, d := range devices {
		res.Devices = append(res.Devices, d.Name)
	}
	native := make([]float64, len(devices))
	for j, d := range devices {
		est := hwsim.Estimator{Dev: d}
		e := est.Estimate(task.Workload, best[j].Best.Config)
		if !e.Valid {
			return nil, fmt.Errorf("repro: native config invalid on %s", d.Name)
		}
		native[j] = e.GFLOPS
	}
	for i := range devices {
		row := make([]float64, len(devices))
		for j, d := range devices {
			est := hwsim.Estimator{Dev: d}
			e := est.Estimate(task.Workload, best[i].Best.Config)
			if e.Valid && native[j] > 0 {
				row[j] = 100 * e.GFLOPS / native[j]
			} // else 0: the foreign config does not even launch here
		}
		res.Matrix[i] = row
	}
	return res, nil
}

// Print renders the cross-evaluation matrix.
func (r *CrossDeviceResult) Print(w io.Writer) {
	fprintf(w, "Cross-device study on %s (rows: tuned on; cols: run on; %% of natively-tuned)\n", r.TaskName)
	fprintf(w, "%-22s", "")
	for _, d := range r.Devices {
		fprintf(w, " %18s", d)
	}
	fprintf(w, "\n")
	for i, d := range r.Devices {
		fprintf(w, "%-22s", d)
		for j := range r.Devices {
			fprintf(w, " %18.1f", r.Matrix[i][j])
		}
		fprintf(w, "\n")
		_ = i
		_ = d
	}
}

// MeanOffDiagonal returns the average cross-device retention percentage
// (excluding the diagonal); low values justify per-device re-tuning.
func (r *CrossDeviceResult) MeanOffDiagonal() float64 {
	var xs []float64
	for i := range r.Matrix {
		for j := range r.Matrix[i] {
			if i != j {
				xs = append(xs, r.Matrix[i][j])
			}
		}
	}
	return meanOf(xs)
}
