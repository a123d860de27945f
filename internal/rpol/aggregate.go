package rpol

import (
	"errors"
	"fmt"

	"rpol/internal/tensor"
)

// ErrNothingToAggregate is returned when no accepted updates remain.
var ErrNothingToAggregate = errors.New("rpol: no accepted updates to aggregate")

// Aggregate applies Eq. (1): θ_{t+1} = θ_t + η·Σ_w (|D_w|/|D|)·L_t^w over the
// accepted updates, where |D| is the total data size of the accepted
// contributions (so that excluding detected cheaters re-normalizes the step
// rather than shrinking it — submissions from detected dishonest workers are
// simply not aggregated, Sec. VII-E). θ_{t+1} is written into dst's storage
// (allocated when nil or too small) and returned; dst may be global but must
// not be one of the updates.
func Aggregate(dst, global tensor.Vector, updates []*EpochResult, eta float64) (tensor.Vector, error) {
	if len(updates) == 0 {
		return nil, ErrNothingToAggregate
	}
	total := 0
	for _, u := range updates {
		if u.DataSize <= 0 {
			return nil, fmt.Errorf("rpol aggregate: worker %s reports data size %d", u.WorkerID, u.DataSize)
		}
		total += u.DataSize
	}
	next := tensor.Resize(dst, len(global))
	copy(next, global)
	for _, u := range updates {
		weight := eta * float64(u.DataSize) / float64(total)
		if err := next.AXPY(weight, u.Update); err != nil {
			return nil, fmt.Errorf("rpol aggregate worker %s: %w", u.WorkerID, err)
		}
	}
	return next, nil
}
