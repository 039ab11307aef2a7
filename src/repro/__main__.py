"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``solve``    — factor and solve a system from a matrix file;
- ``analyze``  — print matrix statistics and symbolic-factorization facts;
- ``scaling``  — run the simulated distributed factorization across
  process counts and print a Table-3-style row;
- ``iterative``— ILU(0)-preconditioned GMRES/BiCGSTAB, optionally
  comparing with/without the MC64 step;
- ``serve``    — run the concurrent solve service (repro.service) under
  a synthetic open-loop client and report throughput, latency
  percentiles, and coalescing width; ``--shards N`` serves through the
  sharded multi-process tier (repro.service.shard) instead;
  ``--workload SPEC``/``--tenants SPEC`` replay a scenario stream with
  multi-tenant SLO classes instead of the synthetic mix, and
  ``--catalog DIR`` registers every ingested catalog matrix
  (docs/WORKLOADS.md);
- ``ingest``   — walk a directory of collection files into an on-disk
  pattern catalog (fingerprints, stats, spooled warm-start plans);
- ``testbed``  — list the built-in testbed matrices.

Matrix files may be Matrix Market (``.mtx``) or Harwell-Boeing
(``.rua``/``.rsa``/``.hb``), gzip-compressed variants included; the
right-hand side defaults to ``A·1`` so the printed forward error is
meaningful without extra inputs.

Every command accepts the global ``--trace`` flag (print a span-tree
report of where the time and flops went after the command finishes) and
``--trace-json PATH`` (dump the same trace as a JSON
:class:`repro.obs.RunRecord`).  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load(path):
    from repro.sparse import read_harwell_boeing, read_matrix_market

    lower = path.lower()
    if lower.endswith(".gz"):          # readers decompress transparently
        lower = lower[:-3]
    if lower.endswith((".rua", ".rsa", ".hb", ".rb")):
        return read_harwell_boeing(path)
    return read_matrix_market(path)


def _load_or_testbed(name_or_path):
    try:
        from repro.matrices import matrix_by_name

        return matrix_by_name(name_or_path).build()
    except KeyError:
        return _load(name_or_path)


def cmd_solve(args):
    from repro.driver import GESPOptions, GESPSolver

    a = _load_or_testbed(args.matrix)
    n = a.ncols
    if args.rhs:
        b = np.loadtxt(args.rhs)
    else:
        b = a @ np.ones(n)
    opts = GESPOptions(
        row_perm=args.row_perm,
        col_perm=args.col_perm,
        scale_diagonal=not args.no_scaling,
        replace_tiny_pivots=not args.no_pivot_replacement,
        extra_precision_residual=args.extra_precision,
        fact=args.fact,
        executor=args.executor,
        factor_dtype=args.factor_dtype,
    )
    if args.executor and args.nprocs <= 1:
        print("note: --executor only affects the distributed pipeline; "
              "use --nprocs > 1", file=sys.stderr)
    if args.refactor_sweep:
        return _refactor_sweep(a, b, opts, args)
    fault_plan = None
    if args.fault_plan:
        from repro.dmem.faults import FaultPlan

        fault_plan = FaultPlan.load(args.fault_plan)
        if args.nprocs <= 1:
            print("note: --fault-plan only affects the simulated "
                  "distributed pipeline; use --nprocs > 1",
                  file=sys.stderr)
    nnz_lu = n_tiny = None
    if args.nprocs > 1:
        # simulated distributed pipeline: the trace then also carries the
        # dmem.* message/wait counters from the virtual machine
        from repro.driver.dist_driver import DistributedGESPSolver

        if args.error_bound:
            print("note: --error-bound is only computed by the serial "
                  "solver; ignoring", file=sys.stderr)
            args.error_bound = False
        opts.symbolic_method = "symmetrized"
        dsolver = DistributedGESPSolver(a, nprocs=args.nprocs, options=opts,
                                        fault_plan=fault_plan)
        report = dsolver.solve(b)
        if report.failure is None:
            nnz_lu = dsolver.symbolic.nnz_lu
            n_tiny = dsolver.factor_run.n_tiny_pivots
    elif args.recover:
        # escalate through the recovery ladder instead of a bare solve
        from repro.recovery import recover_solve

        report = recover_solve(a, b, options=opts)
    else:
        solver = GESPSolver(a, opts)
        report = solver.solve(b, forward_error=args.error_bound)
        nnz_lu = solver.symbolic.nnz_lu
        n_tiny = solver.factors.n_tiny_pivots
    print(f"matrix           : {args.matrix}  (n={n}, nnz={a.nnz})")
    if args.nprocs > 1:
        print(f"virtual procs    : {args.nprocs}")
        from repro.dmem.executor import resolve_executor

        print(f"executor         : {resolve_executor(dsolver.executor).name}")
        if dsolver.factor_run is not None:
            fr = dsolver.factor_run
            # model clock is simulated seconds on "sim", real seconds on
            # "process"; wall is always host wall-clock for the run
            print(f"factor time      : model {fr.elapsed:.4f}s  "
                  f"wall {fr.wall_seconds:.4f}s")
    if nnz_lu is not None:
        print(f"fill nnz(L+U)    : {nnz_lu}")
        print(f"tiny pivots      : {n_tiny}")
    print(f"refinement steps : {report.refine_steps}")
    print(f"backward error   : {report.berr:.3e}")
    if report.recovery is not None:
        print(f"recovery path    : {' -> '.join(report.recovery.path)}")
    from repro.obs import get_tracer

    if get_tracer().enabled:
        from repro.driver.factcache import FACTOR_CACHE

        cs = FACTOR_CACHE.stats()
        print(f"plan cache       : {cs.hits} hits, {cs.misses} misses, "
              f"{cs.evictions} evictions ({cs.size}/{cs.maxsize} plans)")
    if report.failure is not None:
        print(f"FAILED           : {report.failure}")
        return 1
    if not args.rhs:
        print(f"forward error    : {np.abs(report.x - 1.0).max():.3e}  "
              "(vs x* = ones)")
    if args.error_bound:
        print(f"error bound      : {report.forward_error_estimate:.3e}")
    if args.output:
        np.savetxt(args.output, report.x)
        print(f"solution written : {args.output}")
    return 0 if report.converged or not args.recover else 1


def _refactor_sweep(a, b, opts, args):
    """``solve --refactor-sweep K``: factor cold once, then refactor K
    times with same-pattern perturbed values through the SamePattern
    fast path, printing per-iteration wall time, backward error, and the
    cumulative reuse counters (docs/REFACTORIZATION.md)."""
    import time

    from repro.driver import GESPSolver
    from repro.sparse import CSCMatrix

    if args.nprocs > 1:
        from repro.driver.dist_driver import DistributedGESPSolver

    fact = args.fact if args.fact != "DOFACT" else "SAME_PATTERN_SAME_ROWPERM"
    rng = np.random.default_rng(20260806)
    print(f"matrix           : {args.matrix}  (n={a.ncols}, nnz={a.nnz})")
    print(f"refactor sweep   : {args.refactor_sweep} iterations, "
          f"fact={fact}")
    print(f"{'iter':>4} {'mode':<26} {'factor(s)':>10} {'berr':>10} steps")

    def run(tag, f):
        t0 = time.perf_counter()
        rep = f()
        dt = time.perf_counter() - t0
        print(f"{tag:>4} {tag_mode:<26} {dt:>10.4f} {rep.berr:>10.2e} "
              f"{rep.refine_steps}")
        return dt

    tag_mode = "DOFACT (cold)"
    if args.nprocs > 1:
        opts.symbolic_method = "symmetrized"
        solver = None

        def cold():
            nonlocal solver
            solver = DistributedGESPSolver(a, nprocs=args.nprocs,
                                           options=opts)
            return solver.solve(b)
    else:
        solver = None

        def cold():
            nonlocal solver
            solver = GESPSolver(a, opts)
            return solver.solve(b)

    t_cold = run(0, cold)
    t_warm = []
    for k in range(1, args.refactor_sweep + 1):
        perturbed = CSCMatrix(
            a.nrows, a.ncols, a.colptr, a.rowind,
            a.nzval * (1.0 + 1e-8 * rng.standard_normal(a.nnz)),
            check=False)
        tag_mode = fact
        t_warm.append(run(
            k, lambda: solver.refactor(perturbed, fact=fact).solve(b)))
    if t_warm:
        speedup = t_cold / max(min(t_warm), 1e-12)
        print(f"cold factor+solve: {t_cold:.4f}s   warm best: "
              f"{min(t_warm):.4f}s   speedup: {speedup:.2f}x")
    from repro.obs import get_tracer

    tr = get_tracer()
    if tr.enabled:
        counters = tr.root.all_counters()
        print(f"reuse hits       : {counters.get('factor.reuse_hits', 0)}")
        print(f"reuse misses     : {counters.get('factor.reuse_misses', 0)}")
    return 0


def cmd_analyze(args):
    from repro.matrices import matrix_stats
    from repro.symbolic import (
        block_partition,
        build_block_dag,
        symbolic_lu_symmetrized,
    )

    a = _load_or_testbed(args.matrix)
    st = matrix_stats(a)
    print(f"n                  : {st.n}")
    print(f"nnz(A)             : {st.nnz}")
    print(f"StrSym             : {st.str_sym:.3f}")
    print(f"NumSym             : {st.num_sym:.3f}")
    print(f"zero diagonals     : {st.zero_diagonals}")
    print(f"structurally sing. : {st.structurally_singular}")
    if st.structurally_singular:
        return 1
    if not args.natural:
        # analyze the matrix the way GESP would factor it: MC64 row
        # permutation + fill-reducing symmetric ordering + etree postorder
        from repro.driver.dist_driver import DistributedGESPSolver

        a = DistributedGESPSolver(a, nprocs=1,
                                  max_block_size=args.max_block_size,
                                  relax_size=16).a_factored
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=args.max_block_size,
                           relax_size=16)
    dag = build_block_dag(sym, part)
    ls, us = dag.solve_parallel_steps()
    print(f"nnz(L+U) (A+Aᵀ)    : {sym.nnz_lu}")
    print(f"factor flops       : {sym.factor_flops()}")
    print(f"supernodes         : {part.nsuper} "
          f"(mean {part.mean_size():.1f} cols)")
    print(f"critical path      : {dag.critical_path_length()} supernode steps")
    print(f"solve levels       : {ls} forward / {us} backward")
    return 0


def cmd_scaling(args):
    from repro.analysis import Table
    from repro.dmem import MachineModel
    from repro.driver import GESPOptions
    from repro.driver.dist_driver import DistributedGESPSolver

    a = _load_or_testbed(args.matrix)
    b = a @ np.ones(a.ncols)
    machine = MachineModel.scaled_t3e()
    opts = GESPOptions(symbolic_method="symmetrized")
    t = Table(f"Simulated scaling: {args.matrix} (n={a.ncols})",
              ["P", "grid", "factor(ms)", "Mflops", "solve(ms)", "B",
               "comm%"])
    for p in args.procs:
        s = DistributedGESPSolver(a, nprocs=p, machine=machine,
                                  options=opts, relax_size=16,
                                  max_block_size=args.max_block_size)
        run = s.factorize()
        sol = s.solve_distributed(b)
        t.add(p, f"{s.grid.nprow}x{s.grid.npcol}", run.elapsed * 1e3,
              run.mflops(), sol.elapsed * 1e3,
              run.sim.load_balance_factor(),
              100 * run.sim.comm_fraction())
    print(t)
    return 0


def cmd_iterative(args):
    from repro.iterative import PreconditionedSolver

    a = _load_or_testbed(args.matrix)
    b = a @ np.ones(a.ncols)
    for use_mc64 in ((True, False) if args.compare else (not args.no_mc64,)):
        s = PreconditionedSolver(a, mc64_permute=use_mc64)
        res = s.solve(b, method=args.method, tol=args.tol,
                      max_iter=args.max_iter)
        tag = "with MC64" if use_mc64 else "without MC64"
        if res.converged:
            err = float(np.abs(res.x - 1.0).max())
            print(f"{args.method} {tag:13s}: {res.iterations:5d} iterations, "
                  f"err={err:.2e}")
        else:
            print(f"{args.method} {tag:13s}: no convergence in "
                  f"{res.iterations} iterations "
                  f"(residual {res.residual_norm:.2e})")
    return 0


def _mix_items(matrices, n_requests, seed, rate):
    """The synthetic ``serve`` stream as workload items: each request
    draws one registered key of the mix (uniformly), then a fresh
    standard-normal right-hand side, from one seeded generator — same
    seed, same stream — arriving ``1/rate`` apart (all at once when
    ``rate`` is unset).  Items name their matrix by key, so admission
    stays cheap and the steady-state path is exercised."""
    from repro.workload import WorkloadItem

    rng = np.random.default_rng(seed)
    keys = sorted(matrices)
    items = []
    for i in range(n_requests):
        key = keys[int(rng.integers(len(keys)))]
        items.append(WorkloadItem(
            t_offset=i / rate if rate else 0.0, matrix=key,
            b=rng.standard_normal(matrices[key].ncols)))
    return items


def cmd_serve(args):
    """``serve``: run the solve service — in-process, or the sharded
    multi-process tier with ``--shards N`` — under an open-loop client
    replaying a synthetic mix or a ``--workload`` scenario stream
    (docs/SERVICE.md, docs/SHARDING.md, docs/WORKLOADS.md)."""
    from repro.driver import GESPOptions
    from repro.matrices import matrix_by_name
    from repro.service import ServiceConfig, ShardedSolveService, SolveService
    from repro.workload import (
        catalog_matrices,
        generate_all,
        load_tenants,
        load_workload,
        run_workload,
    )

    workload_specs = load_workload(args.workload) if args.workload else None
    tenant_specs = load_tenants(args.tenants) if args.tenants else None
    matrices = {}
    for name in args.matrices:
        try:
            matrices[name] = matrix_by_name(name).build()
        except KeyError:
            matrices[name] = _load(name)
    if args.catalog:
        matrices.update(catalog_matrices(args.catalog))

    cfg = ServiceConfig(queue_capacity=args.queue_capacity,
                        batch_window=args.batch_window,
                        max_batch=args.max_batch,
                        options=GESPOptions(
                            factor_dtype=args.factor_dtype))
    print(f"service          : queue {cfg.queue_capacity}, batch window "
          f"{cfg.batch_window * 1e3:.1f}ms, max batch {cfg.max_batch}")
    if args.shards:
        print(f"sharded tier     : {args.shards} shard processes"
              + (f", spool {args.spool_dir}" if args.spool_dir else "")
              + (f", replicate above {args.hot_rps:.0f} req/s"
                 if args.hot_rps else ""))
    print(f"pattern mix      : {', '.join(f'{k} (n={a.ncols})' for k, a in sorted(matrices.items()))}")
    if workload_specs is not None:
        print("workload spec    : " + ", ".join(
            f"{s.scenario}({s.matrix}, {s.arrival}@{s.rate:g}/s"
            + (f", tenant {s.tenant}" if s.tenant else "") + ")"
            for s in workload_specs))
    else:
        print(f"workload         : {args.requests} requests, "
              + (f"{args.rate:.0f}/s open loop" if args.rate
                 else "single burst")
              + (f", {args.deadline * 1e3:.0f}ms deadline"
                 if args.deadline is not None else ""))
    if tenant_specs:
        print("tenants          : " + ", ".join(
            f"{t.name}(prio {t.priority}"
            + (f", {t.deadline:g}s tier" if t.deadline else "")
            + (f", quota {t.quota_rps:g}/s" if t.quota_rps else "")
            + ")" for t in tenant_specs))
    if args.shards:
        service = ShardedSolveService(shards=args.shards, config=cfg,
                                      spool_dir=args.spool_dir,
                                      hot_rps=args.hot_rps,
                                      auto_start=False)
    else:
        service = SolveService(cfg)
    with service as svc:
        for key, a in matrices.items():
            svc.register_matrix(key, a)
        if workload_specs is not None:
            items = generate_all(workload_specs)
        else:
            items = _mix_items(matrices, args.requests, args.seed, args.rate)
        rep = run_workload(svc, items, tenants=tenant_specs,
                           speed=args.speed, deadline=args.deadline)
    # after close: the sharded tier merges its drained shards' inner
    # service.* counters into stats() (both services report post-close)
    return _print_serve_report(rep, svc.stats(), args)


def _print_serve_report(rep, stats, args) -> int:
    """The ``serve`` report: the per-tenant SLO table (the ``<all>`` row
    alone for untenanted traffic), then the run's totals."""
    from repro.service.server import FACT_COUNTERS

    print(f"{'tenant':<14} {'subm':>5} {'done':>5} {'shed':>5} {'disp':>5} "
          f"{'exp':>4} {'p50(ms)':>8} {'p99(ms)':>8} {'dl-hit':>7} "
          f"{'warm':>6}")
    for row in rep.rows():
        print(f"{row['tenant']:<14} {row['submitted']:>5} "
              f"{row['completed']:>5} {row['quota_shed']:>5} "
              f"{row['overloaded']:>5} {row['expired']:>4} "
              f"{row['p50_latency_seconds'] * 1e3:>8.2f} "
              f"{row['p99_latency_seconds'] * 1e3:>8.2f} "
              f"{row['deadline_hit_rate']:>7.1%} "
              f"{row['warm_hit_rate']:>6.1%}")
    all_ = rep.overall
    print(f"completed        : {all_.completed} certified "
          f"({all_.quota_shed + all_.overloaded} shed, "
          f"{all_.expired} expired, {all_.failed} failed)")
    if rep.elapsed:
        print(f"throughput       : {all_.completed / rep.elapsed:.1f} "
              f"solves/s over {rep.elapsed:.2f}s")
    batches = stats.get("service.batched", 0)
    if batches:
        print(f"coalescing       : {batches} batches, mean width "
              f"{stats.get('service.coalesce_width', 0) / batches:.2f}")
    modes = [(fact, stats.get(name, 0))
             for fact, name in FACT_COUNTERS.items()]
    answered = sum(count for _, count in modes)
    if answered:
        print("fact modes       : " + ", ".join(
            f"{fact} {count / answered:.0%}" for fact, count in modes if count)
            + f"; {stats.get('service.reanchored', 0):.0f} re-anchored")
    if stats.get("service.recovered"):
        print(f"recovered        : {stats['service.recovered']:.0f} requests "
              "via the recovery ladder")
    if args.shards:
        print(f"shard routing    : "
              f"{stats.get('service.shard.requests', 0):.0f} routed, "
              f"{stats.get('service.shard.rejected_overload', 0):.0f} shed, "
              f"{stats.get('service.shard.deaths', 0):.0f} deaths / "
              f"{stats.get('service.shard.respawns', 0):.0f} respawns, "
              f"{stats.get('service.shard.replicated', 0):.0f} patterns "
              "replicated")
        if args.spool_dir:
            print(f"warm-start spool : "
                  f"{stats.get('service.shard.spool_loaded', 0):.0f} plans "
                  f"loaded, {stats.get('service.shard.spool_saved', 0):.0f} "
                  "saved")
    return 0 if all_.failed == 0 else 1


def cmd_ingest(args):
    """``ingest``: directory of collection files → pattern catalog."""
    from repro.workload import ingest_directory

    doc = ingest_directory(args.src, args.catalog,
                           plans=not args.no_plans)
    entries, skipped = doc["entries"], doc.get("skipped", [])
    print(f"catalog          : {args.catalog}  ({len(entries)} entries)")
    print(f"{'name':<18} {'n':>7} {'nnz':>9} {'zdiag':>6} {'strsym':>7} "
          "plan")
    for e in entries:
        print(f"{e['name']:<18} {e['n']:>7} {e['nnz']:>9} "
              f"{e['zero_diagonals']:>6} {e['str_sym']:>7.2f} "
              f"{'spooled' if e['plan_spooled'] else '-'}")
    for s in skipped:
        print(f"skipped          : {s['source']}  ({s['reason']})")
    return 0 if entries else 1


def cmd_testbed(args):
    from repro.matrices import large_8, testbed_53

    print(f"{'name':<12} {'discipline':<24} {'analog of':<10}")
    print("-" * 48)
    for tm in testbed_53() + large_8():
        print(f"{tm.name:<12} {tm.discipline:<24} {tm.analog_of:<10}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (separate from :func:`main` so tooling —
    scripts/check_docs.py's flag lint — can enumerate every flag)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GESP: sparse Gaussian elimination with static pivoting")
    parser.add_argument("--trace", action="store_true",
                        help="print a span-tree trace report after the "
                             "command finishes")
    parser.add_argument("--trace-json", metavar="PATH",
                        help="write the trace as a JSON RunRecord to PATH")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="factor and solve a linear system")
    p.add_argument("matrix", help="matrix file (.mtx/.rua) or testbed name")
    p.add_argument("--rhs", help="right-hand side file (default: A·1)")
    p.add_argument("--nprocs", type=int, default=1,
                   help="solve on a simulated P-processor machine "
                        "(default: serial in-process solver)")
    p.add_argument("--output", help="write the solution vector here")
    p.add_argument("--row-perm", default="mc64_product",
                   choices=["mc64_product", "mc64_bottleneck",
                            "mc64_cardinality", "none"])
    p.add_argument("--col-perm", default="mmd_ata",
                   choices=["mmd_ata", "mmd_at_plus_a", "amd_ata",
                            "amd_at_plus_a", "colamd", "nd_ata", "natural"])
    p.add_argument("--no-scaling", action="store_true")
    p.add_argument("--no-pivot-replacement", action="store_true")
    p.add_argument("--extra-precision", action="store_true")
    p.add_argument("--error-bound", action="store_true")
    p.add_argument("--recover", action="store_true",
                   help="escalate through the solve-recovery ladder "
                        "(GESP -> extra precision -> Woodbury -> refactor "
                        "-> GEPP -> GMRES) until the backward error is "
                        "certified; exit 1 with a diagnosis otherwise")
    p.add_argument("--fault-plan", metavar="PATH",
                   help="JSON fault plan injected into the simulated "
                        "machine (--nprocs > 1): message drop/duplication/"
                        "delay, rank slowdown, compute jitter")
    p.add_argument("--fact", default="DOFACT",
                   choices=["DOFACT", "SAME_PATTERN",
                            "SAME_PATTERN_SAME_ROWPERM"],
                   help="pattern-reuse mode: consult the factorization "
                        "cache for a same-pattern plan instead of a cold "
                        "analysis (see docs/REFACTORIZATION.md)")
    p.add_argument("--executor", default=None,
                   choices=["sim", "process"],
                   help="runtime for the distributed phases (--nprocs > 1): "
                        "'sim' (event-loop simulator) or 'process' (one "
                        "real worker process per rank, pickled "
                        "payloads); default: $REPRO_DMEM_EXECUTOR, then "
                        "'sim' (see docs/EXECUTOR.md)")
    p.add_argument("--factor-dtype", default="float64",
                   choices=["float64", "float32"],
                   help="numeric factorization precision; 'float32' "
                        "factors in single precision and refines in "
                        "double against the original matrix (see "
                        "docs/ROBUSTNESS.md)")
    p.add_argument("--refactor-sweep", type=int, default=0, metavar="K",
                   help="factor cold once, then refactor K times with "
                        "same-pattern perturbed values through the "
                        "SamePattern fast path, reporting per-iteration "
                        "times and reuse counters")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("analyze", help="matrix + symbolic statistics")
    p.add_argument("matrix")
    p.add_argument("--max-block-size", type=int, default=24)
    p.add_argument("--natural", action="store_true",
                   help="analyze the matrix as given, without GESP's "
                        "preprocessing permutations")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("scaling", help="simulated distributed scaling sweep")
    p.add_argument("matrix")
    p.add_argument("--procs", type=int, nargs="+", default=[1, 4, 16, 64])
    p.add_argument("--max-block-size", type=int, default=24)
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("iterative",
                       help="ILU(0)-preconditioned Krylov solve")
    p.add_argument("matrix")
    p.add_argument("--method", default="gmres",
                   choices=["gmres", "bicgstab", "tfqmr"])
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--no-mc64", action="store_true")
    p.add_argument("--compare", action="store_true",
                   help="run both with and without the MC64 step")
    p.set_defaults(fn=cmd_iterative)

    p = sub.add_parser(
        "serve",
        help="run the concurrent solve service under a synthetic client")
    p.add_argument("matrices", nargs="*", default=["cfd03"],
                   help="testbed names or matrix files forming the "
                        "pattern mix (default: cfd03)")
    p.add_argument("--requests", type=int, default=64,
                   help="synthetic requests to issue (default: 64)")
    p.add_argument("--rate", type=float, default=None, metavar="RPS",
                   help="open-loop arrival rate in requests/second "
                        "(default: submit everything as one burst)")
    p.add_argument("--queue-capacity", type=int, default=256,
                   help="admission-queue bound; a full queue sheds load")
    p.add_argument("--batch-window", type=float, default=0.002,
                   metavar="SECONDS",
                   help="coalescing window a request is given from its "
                        "admission (default: 0.002)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="widest multi-RHS block per batch (default: 32)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-request deadline; requests still queued past "
                        "it are evicted with DeadlineExceeded")
    p.add_argument("--seed", type=int, default=0,
                   help="workload RNG seed (default: 0)")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="serve through the sharded multi-process tier "
                        "with N worker processes (default: 0 = the "
                        "in-process service; see docs/SHARDING.md)")
    p.add_argument("--spool-dir", metavar="PATH", default=None,
                   help="warm-start spool directory for the sharded "
                        "tier: PatternPlans persist here so restarted "
                        "shards skip the cold DOFACT analysis")
    p.add_argument("--hot-rps", type=float, default=None, metavar="RPS",
                   help="replicate a pattern onto a second shard once "
                        "it sustains this request rate (default: no "
                        "replication)")
    p.add_argument("--factor-dtype", default="float64",
                   choices=["float64", "float32"],
                   help="numeric factorization precision for the "
                        "service's default solve options; 'float32' "
                        "factors in single precision and lets berr "
                        "certification / the recovery ladder decide "
                        "(see docs/ROBUSTNESS.md)")
    p.add_argument("--workload", metavar="SPEC", default=None,
                   help="replay a workload/v1 scenario-spec JSON file "
                        "(seeded transient/Newton streams) instead of "
                        "the synthetic mix (see docs/WORKLOADS.md)")
    p.add_argument("--tenants", metavar="SPEC", default=None,
                   help="tenants/v1 JSON file of SLO classes (deadline "
                        "tier, priority, token-bucket quota) registered "
                        "before the workload runs (see docs/WORKLOADS.md)")
    p.add_argument("--catalog", metavar="DIR", default=None,
                   help="register every matrix of an ingested pattern "
                        "catalog (python -m repro ingest) before serving")
    p.add_argument("--speed", type=float, default=1.0,
                   help="workload replay speed-up: arrival offsets are "
                        "divided by this (default: 1.0 = real time)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "ingest",
        help="ingest a directory of matrix files into a pattern catalog")
    p.add_argument("src", help="directory of .mtx/.rua/.rsa/.hb/.rb files "
                               "(gzip-compressed variants included)")
    p.add_argument("--catalog", required=True, metavar="DIR",
                   help="catalog directory to create or extend: "
                        "catalog.json + normalized matrices + spooled "
                        "warm-start plans (see docs/WORKLOADS.md)")
    p.add_argument("--no-plans", action="store_true",
                   help="skip the per-matrix cold factorization (faster "
                        "cataloging, but serving starts cold instead of "
                        "from the warm-start spool)")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("testbed", help="list built-in testbed matrices")
    p.set_defaults(fn=cmd_testbed)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if not (args.trace or args.trace_json):
        return args.fn(args)

    from repro.obs import Tracer, format_report, use_tracer

    tracer = Tracer(name=args.command)
    with use_tracer(tracer):
        status = args.fn(args)
    record = tracer.record(command=args.command,
                           argv=list(argv) if argv is not None
                           else sys.argv[1:])
    if args.trace:
        print()
        print(format_report(record))
    if args.trace_json:
        record.dump(args.trace_json)
        print(f"trace written    : {args.trace_json}")
    return status


if __name__ == "__main__":
    sys.exit(main())
