package main

// metricDef is one row of the metric catalogue. BENCHMARK.json is generated
// from these rows (-manifest) and a test holds the two to the same set.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Where  string  // how it is measured
}

// endToEnd are the metrics a pool operator sees, measured with tracing off.
// Every one is non-zero on every workload, which is why the byte and message
// counts of a single fabric (0 where that fabric is absent) and failed_share
// (0 by construction of the workloads) are layer metrics instead. The epoch
// tail is a layer metric too: between identical 25 s runs on the reference
// box p90 moved by up to a fifth, and a bound may not exceed a quarter.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median over a run's set-ups (each task's, plus four repeats) of building dataset, nets, hub, connections, workers and manager (or pool.New)"},
	{"epoch_s_p50", "s", "lower", 0.25, "median wall time of Manager.RunEpoch / Pool.RunEpoch"},
	{"submissions_per_s", "1/s", "higher", 0.25, "verdicts delivered ÷ Σ epoch wall"},
	{"io_bytes_per_epoch", "B", "lower", 0.05, "bytes metered by the hub plus bytes written through fsio.FS, per epoch"},
	{"alloc_mb_per_epoch", "MB", "lower", 0.01, "runtime.MemStats.TotalAlloc delta over a task's epochs, per epoch"},
	{"adv_detect_rate", "ratio", "higher", 0.15, "adversarial submissions rejected ÷ adversarial submissions"},
	{"final_accuracy", "ratio", "higher", 0.10, "mean over tasks of the global model's held-out accuracy after the last epoch"},
}

// perLayer are the metrics of single layers, from the traced run (spans and
// counts the harness records around its calls into each layer), from direct
// timed replays of each module's entry point, and the closure checks that
// tie them back to the end-to-end figures.
var perLayer = []metricDef{
	// Manager phases, from the position of collection calls inside the epoch span.
	{"rpol.manager.calibrate_s", "s", "lower", 0, "span: epoch start → first collection call, mean per epoch"},
	{"rpol.manager.collect_s", "s", "lower", 0, "span: first collection call → last collection return, mean per epoch"},
	{"rpol.manager.verify_s", "s", "lower", 0, "span: last collection return → epoch end, minus open/proof calls, mean per epoch"},
	{"rpol.manager.verify_share", "ratio", "lower", 0, "span: (calibrate + verify) ÷ epoch wall"},
	// Worker and wire, from matching manager-side and worker-side spans.
	{"rpol.worker.run_epoch_s", "s", "lower", 0, "span: honest worker RunEpoch, mean per call"},
	{"wire.run_epoch_overhead_s", "s", "lower", 0, "span: remote RunEpoch self time (codec, LSH family rebuild, two hub hops), mean per call"},
	{"wire.open_checkpoint_overhead_us", "us", "lower", 0, "span: remote OpenCheckpoint self time, mean per call"},
	{"wire.open_proof_overhead_us", "us", "lower", 0, "span: remote OpenProof self time, mean per call"},
	{"rpol.verifier.open_checkpoints_per_submission", "count", "lower", 0, "count of OpenCheckpoint calls ÷ verdicts"},
	{"rpol.verifier.open_proofs_per_submission", "count", "lower", 0, "count of OpenProof calls ÷ verdicts"},
	{"rpol.verifier.reexec_steps_per_submission", "count", "lower", 0, "VerifyOutcome.ReexecSteps ÷ verdicts"},
	{"rpol.verifier.double_checks_per_submission", "count", "lower", 0, "VerifyOutcome.DoubleChecks ÷ verdicts (not observable on durable8)"},
	{"rpol.verifier.lsh_miss_rate", "ratio", "lower", 0, "LSH misses ÷ sampled intervals"},
	{"rpol.verifier.vectors_opened_per_sample", "count", "lower", 0, "verification bytes ÷ (verdicts × q × encoded vector size)"},
	{"rpol.failed_share", "ratio", "lower", 0, "worker-epochs errored, absent or honest-but-rejected ÷ attempted"},
	// Storage.
	{"checkpoint.put_us", "us", "lower", 0, "span: Store.Put (durable8: atomic writes into checkpoint stores), mean per call"},
	{"checkpoint.get_us", "us", "lower", 0, "span: Store.Get (durable8: reads from checkpoint stores), mean per call"},
	{"checkpoint.bytes_per_epoch", "B", "lower", 0, "encoded bytes put into checkpoint stores per epoch"},
	{"fsio.write_atomic_us", "us", "lower", 0, "span: FS.WriteFileAtomic, mean per call"},
	{"fsio.append_sync_us", "us", "lower", 0, "span: Appender.Sync, mean per call"},
	{"fsio.fsyncs_per_epoch", "count", "lower", 0, "file syncs requested through fsio.FS per epoch"},
	{"fsio.bytes_per_epoch", "B", "lower", 0, "bytes written through fsio.FS per epoch"},
	{"fsio.self_share", "ratio", "lower", 0, "span: Σ fsio span time ÷ Σ epoch wall"},
	{"journal.records_per_epoch", "count", "lower", 0, "appends to the epoch journal per epoch"},
	{"journal.bytes_per_epoch", "B", "lower", 0, "bytes appended to the epoch journal per epoch"},
	{"journal.resume_s", "s", "lower", 0, "reopening a closed task's journal with Resume, mean per task"},
	{"pool.run_epoch_self_s", "s", "lower", 0, "span: epoch self time (everything not under another span), mean per epoch"},
	// Hub traffic.
	{"netsim.bytes_per_epoch", "B", "lower", 0, "hub Meter.Total per epoch"},
	{"netsim.msgs_per_submission", "count", "lower", 0, "hub Meter.Messages ÷ submissions"},
	{"netsim.verify_bytes_per_submission", "B", "lower", 0, "metered open-/proof- request/response bytes ÷ verdicts (durable8: the cost model's VerifyCommBytes)"},
	{"netsim.commit_bytes_per_submission", "B", "lower", 0, "metered result bytes ÷ submissions"},
	{"netsim.bytes.task", "B", "lower", 0, "Meter.ByKind per epoch"},
	{"netsim.bytes.result", "B", "lower", 0, "Meter.ByKind per epoch"},
	{"netsim.bytes.open-request", "B", "lower", 0, "Meter.ByKind per epoch"},
	{"netsim.bytes.open-response", "B", "lower", 0, "Meter.ByKind per epoch"},
	{"netsim.bytes.proof-request", "B", "lower", 0, "Meter.ByKind per epoch"},
	{"netsim.bytes.proof-response", "B", "lower", 0, "Meter.ByKind per epoch"},
	{"runtime.peak_rss_mb", "MB", "lower", 0, "VmHWM of the benchmark process at exit"},
	{"epoch.samples", "count", "higher", 0, "traced epochs behind the span metrics"},
	{"epoch.p50_s", "s", "lower", 0, "span: median traced epoch"},
	{"epoch.p90_s", "s", "lower", 0, "span: 90th percentile of traced epochs"},
	// Layer replay: median of direct timed calls at the workload's sizes.
	{"tensor.encode_us", "us", "lower", 0, "replay: Vector.AppendEncode of the model vector"},
	{"tensor.decode_us", "us", "lower", 0, "replay: DecodeVector of the model vector"},
	{"nn.train_step_serial_us", "us", "lower", 0, "replay: Network.TrainBatch at the workload's batch size"},
	{"nn.train_step_batched_us", "us", "lower", 0, "replay: BatchTrainer.TrainBatch at the workload's batch size"},
	{"nn.train_step_serial_allocs", "count", "lower", 0, "replay: heap allocations per Network.TrainBatch"},
	{"prf.batch_indices_us", "us", "lower", 0, "replay: PRF.BatchIndices for one step"},
	{"gpu.perturb_us", "us", "lower", 0, "replay: Device.Perturb of the model vector"},
	{"lsh.new_family_us", "us", "lower", 0, "replay: NewFamily at the calibrated parameters (0 under RPoLv1)"},
	{"lsh.hash_us", "us", "lower", 0, "replay: Family.Hash of the model vector (0 under RPoLv1)"},
	{"commitment.merkle_build_us", "us", "lower", 0, "replay: NewMerkleTree over one epoch's leaves"},
	{"commitment.merkle_prove_us", "us", "lower", 0, "replay: MerkleTree.Prove of the middle leaf"},
	{"commitment.merkle_verify_us", "us", "lower", 0, "replay: VerifyMerkle of that proof"},
	{"commitment.proof_bytes", "B", "lower", 0, "replay: MerkleProof.Size of that proof"},
	{"rpol.trainer.run_epoch_s", "s", "lower", 0, "replay: Trainer.RunEpoch, one honest epoch"},
	{"rpol.commit.commit_trace_us", "us", "lower", 0, "replay: CommitTrace over one epoch's checkpoints"},
	{"rpol.calibrator.calibrate_s", "s", "lower", 0, "replay: Calibrator.Calibrate"},
	{"rpol.verifier.verify_submission_us", "us", "lower", 0, "replay: Verifier.VerifySubmission of an honest in-process submission"},
	{"wire.encode_task_us", "us", "lower", 0, "replay: EncodeTask"},
	{"wire.decode_task_us", "us", "lower", 0, "replay: DecodeTask (rebuilds the LSH family under v2)"},
	{"wire.encode_result_us", "us", "lower", 0, "replay: EncodeResult"},
	{"wire.decode_result_us", "us", "lower", 0, "replay: DecodeResult"},
	{"wire.decode_result_allocs", "count", "lower", 0, "replay: heap allocations per DecodeResult"},
	{"netsim.tcp_rtt_us", "us", "lower", 0, "replay: 64-byte echo through a TCPHub on loopback"},
	{"netsim.tcp_mb_per_s", "MB/s", "higher", 0, "replay: model-vector-sized echo through the hub, both directions counted"},
	// Closure checks.
	{"trace.overhead", "ratio", "lower", 0, "traced ÷ untraced epoch_s_p50 − 1, same seeds"},
	{"trace.coverage", "ratio", "higher", 0, "Σ span self times ÷ Σ epoch wall; 1 ± 0.01 or the run fails"},
	{"replay.coverage.worker", "ratio", "higher", 0, "(rpol.trainer.run_epoch_s + rpol.commit.commit_trace_us) ÷ honest worker RunEpoch self time"},
	{"replay.coverage.manager", "ratio", "higher", 0, "(rpol.calibrator.calibrate_s + N · rpol.verifier.verify_submission_us) ÷ manager calibrate + verify time"},
}
