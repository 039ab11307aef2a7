"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.sparse import CSCMatrix, write_harwell_boeing, write_matrix_market

from conftest import random_nonsingular_dense


@pytest.fixture
def mtx_file(rng, tmp_path):
    d = random_nonsingular_dense(rng, 20, zero_diag=True)
    path = tmp_path / "sys.mtx"
    write_matrix_market(CSCMatrix.from_dense(d), path)
    return str(path)


def test_solve_mtx(mtx_file, capsys):
    assert main(["solve", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "backward error" in out
    assert "refinement steps" in out


def test_solve_writes_solution(mtx_file, tmp_path, capsys):
    out_path = str(tmp_path / "x.txt")
    assert main(["solve", mtx_file, "--output", out_path]) == 0
    x = np.loadtxt(out_path)
    assert x.shape == (20,)
    assert np.abs(x - 1.0).max() < 1e-5


def test_solve_with_rhs_file(mtx_file, tmp_path, rng, capsys):
    rhs_path = str(tmp_path / "b.txt")
    np.savetxt(rhs_path, np.ones(20))
    assert main(["solve", mtx_file, "--rhs", rhs_path]) == 0


def test_solve_option_flags(mtx_file, capsys):
    assert main(["solve", mtx_file, "--row-perm", "mc64_bottleneck",
                 "--no-scaling", "--extra-precision",
                 "--error-bound"]) == 0
    assert "error bound" in capsys.readouterr().out


def test_solve_testbed_name(capsys):
    assert main(["solve", "cfd01"]) == 0
    assert "cfd01" in capsys.readouterr().out


def test_analyze(mtx_file, capsys):
    assert main(["analyze", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "StrSym" in out
    assert "supernodes" in out
    assert "solve levels" in out


def test_analyze_hb_file(rng, tmp_path, capsys):
    d = random_nonsingular_dense(rng, 12, hidden_perm=False)
    path = tmp_path / "sys.rua"
    write_harwell_boeing(CSCMatrix.from_dense(d), path)
    assert main(["analyze", str(path)]) == 0


def test_analyze_singular_exit_code(tmp_path, capsys):
    d = np.zeros((3, 3))
    d[:, 0] = 1.0
    path = tmp_path / "sing.mtx"
    write_matrix_market(CSCMatrix.from_dense(d), path)
    assert main(["analyze", str(path)]) == 1


def test_scaling(mtx_file, capsys):
    assert main(["scaling", mtx_file, "--procs", "1", "4"]) == 0
    out = capsys.readouterr().out
    assert "factor(ms)" in out


def test_testbed_listing(capsys):
    assert main(["testbed"]) == 0
    out = capsys.readouterr().out
    assert "cfd01" in out and "TWOTONEa" in out


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    # the four retired orderings are unknown --col-perm choices
    for retired in ("amd_ata", "amd_at_plus_a", "colamd", "nd_ata"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "cfd01", "--col-perm", retired])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(name in err
                   for name in ("mmd_ata", "mmd_at_plus_a", "natural"))


def test_iterative_command(capsys):
    assert main(["iterative", "cfd02", "--method", "bicgstab",
                 "--tol", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert "iterations" in out


def test_iterative_compare(capsys):
    assert main(["iterative", "cfd01", "--compare", "--max-iter", "200"]) == 0
    out = capsys.readouterr().out
    assert "with MC64" in out and "without MC64" in out


def test_serve_burst(capsys):
    assert main(["serve", "cfd01", "--requests", "12",
                 "--batch-window", "0.005"]) == 0
    out = capsys.readouterr().out
    assert "12 certified" in out
    assert "coalescing" in out
    assert "throughput" in out


def test_serve_open_loop_with_mtx_file(mtx_file, capsys):
    assert main(["serve", mtx_file, "--requests", "6", "--rate", "500",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "6 certified" in out
    assert "open loop" in out


def test_serve_seed_keeps_its_stream():
    """``--seed S`` names a stream: per request one draw of the pattern
    key, then of the right-hand side.  The keys and the checksum were
    taken from the synthetic client at PR 19, before ``serve`` fed the
    mix to ``run_workload`` as workload items."""
    import hashlib

    from repro.__main__ import _mix_items
    from repro.matrices import matrix_by_name

    mix = {k: matrix_by_name(k).build() for k in ("cfd03", "cfd01")}
    items = _mix_items(mix, 6, seed=3, rate=500.0)
    assert [it.matrix for it in items] == ["cfd03", "cfd01", "cfd01",
                                           "cfd03", "cfd01", "cfd03"]
    digest = hashlib.sha1(b"".join(it.b.tobytes() for it in items))
    assert digest.hexdigest() == "dcaf652f6ba835de414f542e59bf9bea30cf7464"
    assert [it.t_offset for it in items] == [i / 500.0 for i in range(6)]
    assert {it.tenant for it in items} == {""}       # stats() unchanged
    assert all(it.t_offset == 0.0 for it in _mix_items(mix, 3, 3, None))


def test_serve_shards(capsys):
    assert main(["serve", "cfd01", "cfd03", "--shards", "2",
                 "--requests", "8"]) == 0
    out = capsys.readouterr().out
    assert "8 certified" in out
    routing = [line for line in out.splitlines()
               if line.startswith("shard routing")]
    assert len(routing) == 1 and ": 8 routed," in routing[0]
    assert "replicated" not in out
    with pytest.raises(SystemExit) as exc:
        main(["serve", "cfd01", "--shards", "2", "--hot-rps", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "cfd01", "--factor-dtype", "float32"],
    ["serve", "cfd01", "--factor-dtype", "float32"],
], ids=["solve", "serve"])
def test_factor_dtype_flag_is_gone(argv):
    """Factors are double precision only: argparse refuses the retired
    flag instead of ignoring it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_serve_trace_carries_service_span(capsys):
    assert main(["--trace", "serve", "cfd01", "--requests", "8"]) == 0
    out = capsys.readouterr().out
    assert "service.requests" in out
    assert "service.coalesce_width" in out


def test_solve_trace_prints_plan_cache_stats(mtx_file, capsys):
    assert main(["--trace", "solve", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "plan cache" in out
    assert "misses" in out


def test_solve_leaves_the_ordering_to_the_engine(mtx_file, monkeypatch,
                                                 capsys):
    """``--col-perm`` defaults to ``None`` — the engine's graph — and
    an explicit choice reaches the solver as given."""
    import repro.driver
    from repro.__main__ import build_parser

    seen = []

    class Spy(repro.driver.GESPSolver):
        def __init__(self, a, options=None, **kwargs):
            seen.append(options.col_perm)
            super().__init__(a, options, **kwargs)

    monkeypatch.setattr(repro.driver, "GESPSolver", Spy)
    assert build_parser().parse_args(["solve", mtx_file]).col_perm is None
    assert main(["solve", mtx_file]) == 0
    assert main(["solve", mtx_file, "--col-perm", "mmd_ata"]) == 0
    assert seen == [None, "mmd_ata"]
