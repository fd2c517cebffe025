"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``    train cuMF_ALS on a dataset surrogate and print the curve
``advise``   run the §VII algorithm advisor for a workload shape
``tune``     autotune the hermitian kernel for a device and f
``analyze``  static analysis: lint a launch/solver config, or the source tree
``verify``   randomized differential/metamorphic verification campaigns
``bench``    host-runtime perf bench (legacy vs optimized), CI-gateable
``chaos``    audited fault-injection campaign (see docs/resilience.md)
``serve``    serving availability drill / chaos campaign (docs/serving.md)
``ingest``   streaming-ingestion chaos drill (docs/streaming.md)
``devices``  list the simulated GPU presets
``report``   regenerate EXPERIMENTS.md (heavy)

Subcommands import their subsystems lazily (inside the handler) so that
``repro --help`` never pays the numpy/scipy startup cost; the AST
self-lint sanctions this one exception (see ``analysis.ast_lint``).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="cuMF_ALS reproduction toolkit"
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train cuMF_ALS on a dataset surrogate")
    t.add_argument("--dataset", default="netflix",
                   choices=["netflix", "yahoomusic", "hugewiki"])
    t.add_argument("--device", default="maxwell")
    t.add_argument("--factors", type=int, default=32)
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--scale", type=float, default=0.2)
    t.add_argument("--solver", default="cg", choices=["cg", "lu"])
    t.add_argument("--precision", default="fp16", choices=["fp16", "fp32"])
    t.add_argument("--gpus", type=int, default=1)
    t.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write an atomic checkpoint every --checkpoint-every "
                        "epochs (single-GPU only)")
    t.add_argument("--checkpoint-every", type=int, default=1)
    t.add_argument("--checkpoint-keep", type=int, default=None, metavar="N",
                   help="retain only the newest N checkpoints, pruning "
                        "oldest-first after each save (default: keep all)")
    t.add_argument("--resume", action="store_true",
                   help="resume from the latest checkpoint in --checkpoint-dir")

    a = sub.add_parser("advise", help="recommend ALS or SGD for a workload")
    a.add_argument("--users", type=int, required=True)
    a.add_argument("--items", type=int, required=True)
    a.add_argument("--ratings", type=int, required=True)
    a.add_argument("--factors", type=int, default=100)
    a.add_argument("--device", default="maxwell")
    a.add_argument("--gpus", type=int, default=1)
    a.add_argument("--implicit", action="store_true")

    u = sub.add_parser("tune", help="autotune the hermitian kernel")
    u.add_argument("--dataset", default="netflix",
                   choices=["netflix", "yahoomusic", "hugewiki"])
    u.add_argument("--device", default="maxwell")

    an = sub.add_parser(
        "analyze",
        help="static analysis: lint kernel/solver configs or the source tree",
    )
    an.add_argument("--device", default="maxwell")
    an.add_argument("--workload", default="netflix",
                    choices=["netflix", "yahoomusic", "hugewiki"])
    an.add_argument("--factors", type=int, default=None,
                    help="override the workload's latent dimension f")
    an.add_argument("--tile", type=int, default=10)
    an.add_argument("--threads-per-block", type=int, default=64)
    an.add_argument("--bin-size", type=int, default=32)
    an.add_argument("--read-scheme", default="noncoal-l1",
                    choices=["coalesced", "noncoal-l1", "noncoal-nol1"])
    an.add_argument("--solver", default="cg", choices=["cg", "lu"])
    an.add_argument("--precision", default="fp16", choices=["fp16", "fp32"])
    an.add_argument("--fs", type=int, default=6,
                    help="CG truncation f_s (max iterations per solve)")
    an.add_argument("--tol", type=float, default=1e-4)
    an.add_argument("--use-l1", action="store_true",
                    help="request L1 caching for the CG stream (paper Fig. 5)")
    an.add_argument("--sample-au", action="store_true",
                    help="sample real A_u statistics from the surrogate dataset")
    an.add_argument("--self", dest="self_lint", action="store_true",
                    help="AST-lint the repro source tree instead of a config")
    an.add_argument("--dataflow", action="store_true",
                    help="run the interprocedural DF/RC dataflow analysis over "
                         "the hot-path modules instead of a config")
    an.add_argument("--path", default=None,
                    help="root directory for --self/--dataflow "
                         "(default: the installed package)")
    an.add_argument("--baseline", nargs="?", const=".analysis-baseline.json",
                    default=None, metavar="FILE",
                    help="suppress findings recorded in FILE "
                         "(default: .analysis-baseline.json) so --strict "
                         "gates on new findings only")
    an.add_argument("--write-baseline", default=None, metavar="FILE",
                    help="record the current findings as the accepted "
                         "baseline in FILE and exit 0")
    an.add_argument("--format", default="text", choices=["text", "json"])
    an.add_argument("--strict", action="store_true",
                    help="exit non-zero on warnings, not just errors")

    v = sub.add_parser(
        "verify",
        help="run randomized differential/metamorphic verification campaigns",
    )
    v.add_argument("--seed", type=int, default=0,
                   help="root seed; the whole campaign replays from it")
    v.add_argument("--budget", type=int, default=200,
                   help="total fuzz cases across all checks")
    v.add_argument("--checks", default=None,
                   help="comma-separated subset of checks (default: all)")
    v.add_argument("--list-checks", action="store_true",
                   help="list registered checks and exit")
    v.add_argument("--fixtures-dir", default="tests/fixtures/verify",
                   help="where shrunk reproducers are persisted")
    v.add_argument("--no-fixtures", action="store_true",
                   help="do not persist reproducers to disk")
    v.add_argument("--no-shrink", action="store_true",
                   help="skip minimization of failing cases")
    v.add_argument("--format", default="text", choices=["text", "json"])
    v.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings, not just errors")

    bn = sub.add_parser(
        "bench",
        help="measure the host runtime (legacy vs optimized) and gate on a baseline",
    )
    bn.add_argument("--quick", action="store_true",
                    help="small CI shape (seconds) instead of the full surrogate")
    bn.add_argument("--repeats", type=int, default=None,
                    help="timed repetitions per leg (default: shape preset)")
    bn.add_argument("--workers", type=int, default=None,
                    help="process-pool workers for the optimized plan "
                         "(default: in-process, one shard per usable core, "
                         "as training runs; 0: one-shard serial plan)")
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--output", default="BENCH_runtime.json",
                    help="where to write the repro.bench/v1 report")
    bn.add_argument("--check-against", default=None, metavar="BASELINE",
                    help="baseline JSON of speedup ratios to gate against")
    bn.add_argument("--tolerance", type=float, default=None,
                    help="override the baseline's regression tolerance (0-1)")

    c = sub.add_parser(
        "chaos",
        help="audited fault-injection campaign against the supervised runtime",
    )
    c.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (same seed, same faults)")
    c.add_argument("--budget", default="small", choices=["small", "medium"],
                   help="campaign size: small is the CI smoke tier")
    c.add_argument("--kill-resume", action="store_true",
                   help="also prove the kill-and-resume checkpoint round trip")
    c.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="directory for the kill-resume checkpoints "
                        "(default: a temporary directory)")
    c.add_argument("--output", default=None, metavar="REPORT.json",
                   help="write the full JSON report (incl. health log) here")

    s = sub.add_parser(
        "serve",
        help="serving availability drill: admission, degradation, hot reload",
    )
    s.add_argument("--seed", type=int, default=0,
                   help="stream + fault-plan seed (same seed, same drill)")
    s.add_argument("--requests", type=int, default=200,
                   help="requests in the seeded traffic stream")
    s.add_argument("--smoke", action="store_true",
                   help="fault-free smoke tier: every request must be "
                        "fully answered")
    s.add_argument("--chaos", action="store_true",
                   help="inject the serving fault campaign (default when "
                        "--smoke is not given)")
    s.add_argument("--workers", type=int, default=0, metavar="N",
                   help="run the multi-process fleet drill with N supervised "
                        "scoring workers (0, the default, keeps the "
                        "single-process engine drill)")
    s.add_argument("--nprobe", type=int, default=None, metavar="P",
                   help="retrieval-index cells probed per request "
                        "(default: ceil(ncells/2); >= ncells is exact "
                        "brute force)")
    s.add_argument("--index", dest="index", action="store_true",
                   default=True,
                   help="serve through the IVF retrieval index (default)")
    s.add_argument("--no-index", dest="index", action="store_false",
                   help="disable the retrieval index: every request is "
                        "scored by the full brute-force GEMM")
    s.add_argument("--workdir", default=None, metavar="DIR",
                   help="where model artifacts are staged "
                        "(default: a temporary directory)")
    s.add_argument("--output", default=None, metavar="REPORT.json",
                   help="write the full JSON availability report "
                        "(incl. health log) here")

    ig = sub.add_parser(
        "ingest",
        help="streaming-ingestion drill: WAL, fold-in, kill-replay",
    )
    ig.add_argument("--seed", type=int, default=0,
                    help="stream + fault-plan seed (same seed, same drill)")
    ig.add_argument("--events", type=int, default=160,
                    help="mixed workload size: streamed ratings + requests")
    ig.add_argument("--smoke", action="store_true",
                    help="fault-free smoke tier (the kill-replay leg "
                         "still runs)")
    ig.add_argument("--chaos", action="store_true",
                    help="inject the ingestion fault campaign (default "
                         "when --smoke is not given)")
    ig.add_argument("--workdir", default=None, metavar="DIR",
                    help="where model artifacts, WALs and checkpoints are "
                         "staged (default: a temporary directory)")
    ig.add_argument("--output", default=None, metavar="REPORT.json",
                    help="write the full JSON report here")

    sub.add_parser("devices", help="list simulated GPU presets")

    r = sub.add_parser("report", help="regenerate EXPERIMENTS.md (slow)")
    r.add_argument("--output", default="EXPERIMENTS.md")
    r.add_argument("--scale", type=float, default=0.2)
    return p


def _cmd_train(args) -> int:
    from .core import ALSConfig, ALSModel, MultiGpuALS, Precision, SolverKind
    from .data import load_surrogate
    from .gpusim import get_device

    split, spec = load_surrogate(args.dataset, scale=args.scale)
    cfg = ALSConfig(
        f=args.factors,
        lam=spec.lam,
        solver=SolverKind(args.solver),
        precision=Precision(args.precision),
    )
    device = get_device(args.device)
    if args.gpus == 1:
        model = ALSModel(cfg, device=device, sim_shape=spec.paper)
        curve = model.fit(
            split.train,
            split.test,
            epochs=args.epochs,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            resume=args.resume,
        )
    else:
        if args.checkpoint_dir is not None or args.resume:
            print("error: --checkpoint-dir/--resume need --gpus 1",
                  file=sys.stderr)
            return 2
        model = MultiGpuALS(cfg, device=device, num_gpus=args.gpus,
                            sim_shape=spec.paper)
        curve = model.fit(split.train, split.test, epochs=args.epochs)
    print(f"{args.dataset} surrogate ({split.train}) on {args.gpus}x {device.name}")
    print("epoch  sim-seconds  test-RMSE")
    for pt in curve.points:
        print(f"{pt.epoch:5d}  {pt.seconds:11.2f}  {pt.rmse:9.4f}")
    return 0


def _cmd_advise(args) -> int:
    from .core import recommend_algorithm
    from .data import WorkloadShape
    from .gpusim import get_device

    shape = WorkloadShape(m=args.users, n=args.items, nnz=args.ratings,
                          f=args.factors)
    choice = recommend_algorithm(
        shape, device=get_device(args.device), num_gpus=args.gpus,
        implicit=args.implicit,
    )
    print(f"recommendation: {choice.algorithm.upper()}")
    print(f"  estimated ALS epoch: {choice.est_als_epoch_seconds:.3f}s")
    print(f"  estimated SGD epoch: {choice.est_sgd_epoch_seconds:.3f}s")
    for reason in choice.reasons:
        print(f"  - {reason}")
    if choice.diagnostics:
        print(f"static analysis ({len(choice.diagnostics)} finding(s)):")
        for d in choice.diagnostics:
            print(f"  {d.severity.value}: {d.rule_id} [{d.subject}] {d.message}")
    return 0


def _cmd_tune(args) -> int:
    from .core import tune_hermitian
    from .data import get_dataset
    from .gpusim import get_device

    device = get_device(args.device)
    result = tune_hermitian(device, get_dataset(args.dataset).paper)
    b = result.best
    print(f"best get_hermitian config on {device.name}:")
    print(f"  tile T={b.tile}, threads/block={b.threads_per_block}, "
          f"BIN={b.bin_size}")
    print(f"  {b.registers_per_thread} regs/thread, {b.blocks_per_sm} blocks/SM, "
          f"{b.seconds:.4f}s per pass")
    for d in result.diagnostics:
        print(f"  note ({d.rule_id}): {d.message}")
    return 0


def _cmd_analyze(args) -> int:
    import os
    import sys

    from .analysis import (
        Severity,
        analyze_dataflow,
        analyze_workload,
        apply_baseline,
        lint_tree,
        load_baseline,
        max_severity,
        render_json,
        render_text,
        sample_workload_stats,
        write_baseline,
    )

    if args.self_lint or args.dataflow:
        diags = []
        if args.self_lint:
            root = args.path or os.path.dirname(os.path.abspath(__file__))
            diags.extend(lint_tree(root))
        if args.dataflow:
            diags.extend(analyze_dataflow(args.path))
        fail = True  # the source tree must analyze clean; recomputed below
    else:
        from .core import ALSConfig, CGConfig, Precision, ReadScheme, SolverKind
        from .data import get_dataset, load_surrogate
        from .gpusim import get_device

        device = get_device(args.device)
        spec = get_dataset(args.workload)
        shape = spec.paper
        if args.factors is not None:
            from .data import WorkloadShape

            shape = WorkloadShape(m=shape.m, n=shape.n, nnz=shape.nnz,
                                  f=args.factors)
        config = ALSConfig(
            f=shape.f,
            lam=spec.lam,
            solver=SolverKind(args.solver),
            precision=Precision(args.precision),
            read_scheme=ReadScheme(args.read_scheme),
            cg=CGConfig(max_iters=args.fs, tol=args.tol),
            bin_size=args.bin_size,
            tile=args.tile,
        )
        stats = None
        if args.sample_au:
            split, _ = load_surrogate(args.workload, scale=0.05)
            stats = sample_workload_stats(split.train, config)
        diags = analyze_workload(
            device, shape, config,
            threads_per_block=args.threads_per_block,
            use_l1=args.use_l1,
            stats=stats,
        )

    if args.write_baseline is not None:
        count = write_baseline(args.write_baseline, diags)
        print(f"wrote {count} baseline fingerprint(s) to {args.write_baseline}",
              file=sys.stderr)
        return 0

    suppressed = 0
    if args.baseline is not None:
        from .analysis import DEFAULT_BASELINE_NAME

        if args.baseline == DEFAULT_BASELINE_NAME and not os.path.exists(
            args.baseline
        ):
            # bare --baseline outside a repo checkout: nothing to suppress
            baseline = set()
        else:
            baseline = load_baseline(args.baseline)
        diags, suppressed = apply_baseline(diags, baseline)

    if args.self_lint or args.dataflow:
        fail = bool(diags)  # the source tree must analyze clean
    else:
        top = max_severity(diags)
        threshold = Severity.WARNING if args.strict else Severity.ERROR
        fail = top is not None and top >= threshold

    if args.format == "json":
        print(render_json(diags))
    else:
        print(render_text(diags))
    if suppressed:
        print(f"({suppressed} baselined finding(s) suppressed)", file=sys.stderr)
    return 1 if fail else 0


def _cmd_verify(args) -> int:
    from .analysis import Severity
    from .verify import (
        CHECKS,
        VerifyConfig,
        render_report_json,
        render_report_text,
        run_campaign,
    )

    if args.list_checks:
        for name, check in sorted(CHECKS.items()):
            weight = f" (weight {check.weight:g})" if check.weight != 1.0 else ""
            print(f"{name:20s} {check.summary}{weight}")
        return 0

    checks = tuple(c for c in (args.checks or "").split(",") if c)
    config = VerifyConfig(
        seed=args.seed,
        budget=args.budget,
        checks=checks,
        shrink=not args.no_shrink,
        fixtures_dir=None if args.no_fixtures else args.fixtures_dir,
    )
    result = run_campaign(config)
    if args.format == "json":
        print(render_report_json(result))
    else:
        print(render_report_text(result))
    top = result.max_severity()
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if top is not None and top >= threshold else 0


def _cmd_bench(args) -> int:
    import dataclasses
    import json

    from .runtime import bench

    cfg = bench.QUICK_BENCH if args.quick else bench.FULL_BENCH
    cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.repeats is not None:
        cfg = dataclasses.replace(cfg, repeats=args.repeats)
    result = bench.run_bench(cfg, workers=args.workers)
    path = bench.write_report(result, args.output)
    plan = result["plan"]
    print(f"plan: method={plan['method']} chunk_elems={plan['chunk_elems']} "
          f"shards={plan['shards']} workers={plan['workers']}")
    for name, sec in result["sections"].items():
        print(f"{name:10s} legacy {sec['legacy_seconds'] * 1e3:8.1f} ms   "
              f"optimized {sec['optimized_seconds'] * 1e3:8.1f} ms   "
              f"speedup {sec['speedup']:.2f}x")
    allocs = result["arena"]["steady_state_allocations"]
    print(f"arena: {allocs} steady-state allocation(s)")
    print(f"wrote {path}")
    if args.check_against is None:
        return 0
    with open(args.check_against) as fh:
        baseline = json.load(fh)
    ok, messages = bench.compare_against(
        result, baseline, tolerance=args.tolerance
    )
    for message in messages:
        print(message)
    return 0 if ok else 1


def _finish_drill(args, name: str, report: dict, summary) -> int:
    """The drills' common tail: archive, print, and gate on ``ok``.

    Writes the full report to ``--output``, prints it without its
    health log, then either fails or prints ``<name>: ok — summary``.
    """
    import json

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    print(json.dumps({k: v for k, v in report.items() if k != "health"}, indent=2))
    if not report["ok"]:
        print(f"{name}: FAILED (see report above)", file=sys.stderr)
        return 1
    print(f"{name}: ok — {summary(report)}")
    return 0


def _cmd_chaos(args) -> int:
    from .resilience.chaos import run_chaos

    report = run_chaos(
        seed=args.seed,
        budget=args.budget,
        kill_resume=args.kill_resume,
        checkpoint_dir=args.checkpoint_dir,
    )
    return _finish_drill(
        args,
        "chaos",
        report,
        lambda r: f"{r['expected_faults']} fault(s) injected, "
        "all accounted, factors finite, objective within tolerance"
        + (", kill-resume bit-equal" if args.kill_resume else ""),
    )


def _cmd_serve(args) -> int:
    from .serving.drill import run_fleet_drill, run_serving_drill

    chaos = not args.smoke or args.chaos
    if args.workers > 0:
        report = run_fleet_drill(
            seed=args.seed,
            requests=args.requests,
            workers=args.workers,
            chaos=chaos,
            index=args.index,
            nprobe=args.nprobe,
            workdir=args.workdir,
        )
    else:
        report = run_serving_drill(
            seed=args.seed,
            requests=args.requests,
            chaos=chaos,
            index=args.index,
            nprobe=args.nprobe,
            workdir=args.workdir,
        )
    return _finish_drill(args, "serve", report, _serve_summary)


def _serve_summary(report: dict) -> str:
    faults = (
        f", {report['expected_faults']} fault(s) injected and accounted"
        if report["fault_plan"] is not None
        else " (fault-free smoke)"
    )
    if "workers" in report:
        return (
            f"{report['requests']} request(s) over "
            f"{report['ticks']} tick(s) across {report['workers']} "
            f"worker(s), availability {report['availability']:.4f}, "
            f"{report['throughput']['requests_per_s']:.0f} req/s"
            + faults
            + ", single-worker fleet bit-identical to in-process engine"
        )
    retrieval = report["retrieval"]
    return (
        f"{report['requests']} request(s) over "
        f"{report['ticks']} tick(s), availability "
        f"{report['availability']:.4f}"
        + faults
        + (
            f", recall@{retrieval['k']} {retrieval['recall_at_k']:.3f} at "
            f"nprobe {retrieval['nprobe']}/{retrieval['ncells']}"
            if retrieval["enabled"]
            else ", index disabled"
        )
    )


def _cmd_ingest(args) -> int:
    from .streaming.drill import run_ingest_drill

    chaos = not args.smoke or args.chaos
    report = run_ingest_drill(
        seed=args.seed,
        events=args.events,
        chaos=chaos,
        workdir=args.workdir,
    )
    return _finish_drill(
        args,
        "ingest",
        report,
        lambda r: f"{r['streamed']} rating(s) streamed, "
        f"{r['requests']} request(s) served over {r['ticks']} "
        f"tick(s), availability {r['availability']:.4f}, "
        f"read-your-writes held"
        + (
            f", {r['expected_faults']} fault(s) injected and accounted"
            if r["mode"] == "chaos"
            else " (fault-free smoke)"
        )
        + f"; kill-replay across {r['kill_replay']['ops']} op(s) bit-identical "
        f"({r['kill_replay']['compactions']} compaction(s), torn tail repaired)",
    )


def _cmd_devices(_args) -> int:
    from .gpusim import DEVICE_PRESETS

    seen = {}
    for dev in DEVICE_PRESETS.values():
        seen[dev.name] = dev
    for dev in seen.values():
        tc = f", {dev.tensor_core_flops / 1e12:.0f} TF tensor" if dev.tensor_core_flops else ""
        print(
            f"{dev.name:22s} {dev.generation:8s} {dev.num_sms:3d} SMs, "
            f"{dev.peak_flops_fp32 / 1e12:5.1f} TFLOPS, "
            f"{dev.dram_bandwidth / 1e9:5.0f} GB/s{tc}"
        )
    return 0


def _cmd_report(args) -> int:
    from .harness.report import generate_report

    text = generate_report(scale=args.scale)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "advise": _cmd_advise,
    "tune": _cmd_tune,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "devices": _cmd_devices,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
