package nn_test

import (
	"sort"
	"testing"

	"rpol/internal/modelzoo"
	"rpol/internal/nn"
	"rpol/internal/tensor"
)

// TestAccuracyBatchedMatchesPredict evaluates every zoo proxy's test set:
// Accuracy runs the layers' batch forms, and every one of its predictions
// must be Predict's — Accuracy against Predict's own labels is exactly 1
// over any tiling. The batched path must also leave no model-sized buffer
// behind per call.
func TestAccuracyBatchedMatchesPredict(t *testing.T) {
	registry := modelzoo.Registry()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := registry[name]
		t.Run(name, func(t *testing.T) {
			net, _, test, err := spec.BuildProxy(3)
			if err != nil {
				t.Fatal(err)
			}
			xs := make([]tensor.Vector, test.Len())
			labels := make([]int, test.Len())
			predicted := make([]int, test.Len())
			correct := 0
			for i, ex := range test.Examples {
				xs[i], labels[i] = ex.Features, ex.Label
				if predicted[i], err = net.Predict(ex.Features); err != nil {
					t.Fatal(err)
				}
				if predicted[i] == labels[i] {
					correct++
				}
			}
			got, err := net.Accuracy(xs, labels)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(correct) / float64(len(xs)); got != want {
				t.Errorf("Accuracy = %v, per-example Predict gives %v", got, want)
			}
			for _, n := range []int{1, 7, len(xs)} {
				if agree, err := net.Accuracy(xs[:n], predicted[:n]); err != nil || agree != 1 {
					t.Errorf("over the first %d examples Accuracy agrees with Predict on %v (%v)", n, agree, err)
				}
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := net.Accuracy(xs, labels); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("batched Accuracy allocates %.0f times per call past its first", allocs)
			}
			// A swapped layer is evaluated as swapped: Accuracy runs on the
			// network's own layers.
			last := len(net.Layers) - 1
			old, ok := net.Layers[last].(*nn.Dense)
			if !ok {
				t.Fatalf("last layer is %s, want dense", net.Layers[last].Name())
			}
			net.Layers[last] = nn.NewDense(old.InputDim(), old.OutputDim(), tensor.NewRNG(99))
			for i, x := range xs {
				if predicted[i], err = net.Predict(x); err != nil {
					t.Fatal(err)
				}
			}
			if agree, err := net.Accuracy(xs, predicted); err != nil || agree != 1 {
				t.Errorf("after a layer swap Accuracy agrees with Predict on %v (%v)", agree, err)
			}
		})
	}
}
