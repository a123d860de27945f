// Package netsim models the wide-area network of the paper's evaluation
// (one pool manager on a 10 Gbps link, workers on 100 Mbps links,
// Sec. VII-E) and meters every byte the protocol moves.
//
// Two layers are provided:
//
//   - a closed-form cost model (transferTime, FanOutTime, FanInTime) used by
//     the Table II/III epoch-time and overhead calculations at paper scale,
//   - a TCP message hub with per-endpoint byte metering used by the
//     distributed deployments, so measured traffic and modelled traffic can
//     be cross-checked.
package netsim

import (
	"errors"
	"time"
)

// LinkSpec is a duplex link capacity in bits per second.
type LinkSpec struct {
	UpBps   float64
	DownBps float64
}

// The paper's evaluation links (Sec. VII-E).
var (
	// ManagerLink is the pool manager's 10 Gbps connection.
	ManagerLink = LinkSpec{UpBps: 10e9, DownBps: 10e9}
	// WorkerLink is each pool worker's 100 Mbps connection.
	WorkerLink = LinkSpec{UpBps: 100e6, DownBps: 100e6}
)

// ErrBadLink is returned for non-positive link capacities.
var ErrBadLink = errors.New("netsim: link capacity must be positive")

// transferTime returns the time to move payloadBytes from a sender with
// uplink senderUpBps to a receiver with downlink receiverDownBps: the
// bottleneck link governs.
func transferTime(payloadBytes int64, senderUpBps, receiverDownBps float64) (time.Duration, error) {
	if senderUpBps <= 0 || receiverDownBps <= 0 {
		return 0, ErrBadLink
	}
	if payloadBytes <= 0 {
		return 0, nil
	}
	bps := senderUpBps
	if receiverDownBps < bps {
		bps = receiverDownBps
	}
	seconds := float64(payloadBytes) * 8 / bps
	return time.Duration(seconds * float64(time.Second)), nil
}

// FanOutTime returns the time for the manager to send a distinct payload of
// bytesEach to each of n workers. The manager's uplink carries n·bytesEach
// in aggregate; each worker's downlink carries bytesEach. Transfers overlap,
// so the slower of the two constraints governs.
func FanOutTime(n int, bytesEach int64, manager, worker LinkSpec) (time.Duration, error) {
	if manager.UpBps <= 0 || worker.DownBps <= 0 {
		return 0, ErrBadLink
	}
	if n <= 0 || bytesEach <= 0 {
		return 0, nil
	}
	aggregate := float64(n) * float64(bytesEach) * 8 / manager.UpBps
	perWorker := float64(bytesEach) * 8 / worker.DownBps
	seconds := aggregate
	if perWorker > seconds {
		seconds = perWorker
	}
	return time.Duration(seconds * float64(time.Second)), nil
}

// FanInTime returns the time for n workers to upload bytesEach to the
// manager, symmetric to FanOutTime.
func FanInTime(n int, bytesEach int64, manager, worker LinkSpec) (time.Duration, error) {
	if manager.DownBps <= 0 || worker.UpBps <= 0 {
		return 0, ErrBadLink
	}
	if n <= 0 || bytesEach <= 0 {
		return 0, nil
	}
	aggregate := float64(n) * float64(bytesEach) * 8 / manager.DownBps
	perWorker := float64(bytesEach) * 8 / worker.UpBps
	seconds := aggregate
	if perWorker > seconds {
		seconds = perWorker
	}
	return time.Duration(seconds * float64(time.Second)), nil
}
