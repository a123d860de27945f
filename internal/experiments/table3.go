package experiments

import (
	"time"

	"rpol/internal/economics"
)

// Table3Options configures the overhead breakdown.
type Table3Options struct {
	// Task and Workers (paper: ResNet50 on ImageNet, 100 workers).
	Task    string
	Workers int
	Cost    CostModelOptions
	Pricing economics.Pricing
}

func (o *Table3Options) defaults() {
	if o.Task == "" {
		o.Task = "resnet50-imagenet"
	}
	if o.Workers <= 0 {
		o.Workers = 100
	}
	if o.Pricing == (economics.Pricing{}) {
		o.Pricing = economics.DefaultPricing()
	}
}

// Table3Row is one scheme's resource bill.
type Table3Row struct {
	Scheme string
	// ManagerComp and WorkerComp are per-epoch computation times.
	ManagerComp, WorkerComp time.Duration
	// CommGB is the epoch's total WAN traffic under the paper's accounting
	// (q × 2 vectors per submission under v1, q × 1 under v2); CommElidedGB
	// is what a verifier moves that never pulls a leaf it holds or can
	// compute (ExpectedOpenings).
	CommGB, CommElidedGB float64
	// StorageGB is one worker's checkpoint archive.
	StorageGB float64
	// CapitalCost is the epoch's dollar bill under the pricing card: all
	// workers' GPU time, the manager's GPU time, WAN traffic, and storage
	// prorated for the epoch's duration.
	CapitalCost float64
}

// Table3Result reproduces Table III.
type Table3Result struct {
	Rows  []Table3Row
	Table Table
}

// Table3 computes the per-epoch computation, communication, storage, and
// capital costs of the three schemes at paper scale.
func Table3(opts Table3Options) (*Table3Result, error) {
	opts.defaults()
	res := &Table3Result{Table: Table{
		Caption: "Table III — per-epoch overhead (ResNet50 + ImageNet cost model)",
		Headers: []string{"scheme", "mgr comp (s)", "worker comp (s)", "comm (GB)", "comm, known-leaf elision (GB)", "storage/worker (GB)", "capital cost ($)"},
	}}
	const gb = 1e9
	for _, scheme := range []string{"baseline", "RPoLv1", "RPoLv2"} {
		cell, err := ComputeEpochCost(opts.Task, scheme, opts.Workers, opts.Cost)
		if err != nil {
			return nil, err
		}
		// Capital cost: every worker's GPU time plus the manager's, the
		// WAN bill, and storage prorated for the epoch duration (a tiny
		// fraction of the monthly rate — checkpoints live only until
		// verification completes).
		gpuTime := time.Duration(int64(cell.WorkerComp)*int64(opts.Workers)) + cell.ManagerComp
		epochMonths := cell.Total.Hours() / (30 * 24)
		usage := economics.Usage{
			GPUTime:       gpuTime,
			CommBytes:     cell.CommBytes,
			StorageBytes:  cell.StorageBytes * int64(opts.Workers),
			StorageMonths: epochMonths,
		}
		row := Table3Row{
			Scheme:       scheme,
			ManagerComp:  cell.ManagerComp,
			WorkerComp:   cell.WorkerComp,
			CommGB:       float64(cell.CommBytes) / gb,
			CommElidedGB: float64(cell.CommBytesElided) / gb,
			StorageGB:    float64(cell.StorageBytes) / gb,
			CapitalCost:  economics.CapitalCost(usage, opts.Pricing),
		}
		res.Rows = append(res.Rows, row)
		res.Table.Add(scheme, row.ManagerComp.Seconds(), row.WorkerComp.Seconds(),
			row.CommGB, row.CommElidedGB, row.StorageGB, row.CapitalCost)
	}
	return res, nil
}
