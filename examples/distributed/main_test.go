package main

import (
	"testing"

	"rpol/internal/obs"
)

// TestRun executes the example end to end; examples are part of the public
// surface and must keep working. The hub's net_tcp_* counters, attached
// before the first epoch, equal its meter, and the printed kinds account for
// every metered byte.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example run skipped in -short mode")
	}
	reg := obs.NewRegistry()
	meter, err := run(reg)
	if err != nil {
		t.Fatal(err)
	}
	tcp := reg.Snapshot().Counters
	if got, want := tcp["net_tcp_bytes_total"], meter.Total(); got != want || want == 0 {
		t.Errorf("net_tcp_bytes_total = %d, meter total %d", got, want)
	}
	if got, want := tcp["net_tcp_messages_total"], meter.Messages(); got != want || want == 0 {
		t.Errorf("net_tcp_messages_total = %d, meter messages %d", got, want)
	}
	byKind := meter.ByKind()
	var sum int64
	for _, kind := range kinds {
		sum += byKind[kind]
	}
	if sum != meter.Total() {
		t.Errorf("the printed kinds sum to %d bytes of the %d metered (%v)", sum, meter.Total(), byKind)
	}
}
