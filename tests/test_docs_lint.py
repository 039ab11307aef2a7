"""Docs stay in sync with the code: run scripts/check_docs.py as a test."""

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_check_docs():
    path = REPO / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


check_docs = _load_check_docs()


def test_architecture_md_mentions_every_package():
    assert (REPO / "docs" / "ARCHITECTURE.md").is_file()
    assert check_docs.missing_packages() == []


def test_observability_md_documents_every_counter():
    assert (REPO / "docs" / "OBSERVABILITY.md").is_file()
    assert check_docs.missing_counters() == []


def test_check_docs_cli_exit_status():
    assert check_docs.main() == 0


def test_green_run_ends_with_the_source_size_line(capsys):
    """The numbers ROADMAP.md and every CHANGES.md entry quote, from one
    tool: what a user can set, then the source size."""
    assert check_docs.main() == 0
    knobs, last = capsys.readouterr().out.splitlines()[-2:]
    assert re.fullmatch(r"knobs: \d+ / \d+ / \d+ / 1", knobs)
    # a name in prose or a docstring is not a variable the code reads
    assert check_docs.env_variables() == ["REPRO_DMEM_EXECUTOR"]
    files = [p for p in (REPO / "src").rglob("*.py")]
    lines = b"".join(p.read_bytes() for p in files).count(b"\n")
    assert last == f"src: {len(files)} modules / {lines} lines"
    assert len(files) > 80 and lines > 15_000


def test_lint_catches_a_missing_package():
    # feed the linter a doc that omits a package: it must notice
    text = "\n".join(f"repro.{p}" for p in check_docs.repro_packages()[1:])
    assert check_docs.missing_packages(text) == \
        [check_docs.repro_packages()[0]]


def test_lint_catches_a_missing_counter():
    from repro.obs import counter_names

    names = counter_names()
    text = "\n".join(names[:-1])
    assert check_docs.missing_counters(text) == [names[-1]]


def test_packages_include_nested_subpackages():
    # the walk must see nested packages, not just top-level ones
    assert "service" in check_docs.repro_packages()
    assert "service.shard" in check_docs.repro_packages()


def test_docs_index_links_every_doc():
    assert (REPO / "docs" / "README.md").is_file()
    assert check_docs.missing_from_index() == []


def test_lint_catches_an_unindexed_doc():
    docs = check_docs.docs_files()
    text = "\n".join(docs[:-1])
    assert check_docs.missing_from_index(text) == [docs[-1]]


def test_every_cli_flag_is_documented():
    assert check_docs.undocumented_flags() == []
    assert check_docs.stale_flag_rows() == []


def test_cli_flag_walk_sees_subcommand_and_global_flags():
    flags = check_docs.cli_flags()
    assert "--trace" in flags          # global
    assert "--shards" in flags         # serve subcommand
    assert "--refactor-sweep" in flags  # solve subcommand
    assert "--help" not in flags


def test_lint_catches_an_undocumented_flag():
    flags = check_docs.cli_flags()
    text = "\n".join(flags[:-1])
    assert check_docs.undocumented_flags(text) == [flags[-1]]


def test_lint_catches_a_stale_flag_row():
    text = ("| flag | meaning |\n|---|---|\n"
            "| `--shards N` | serve through the sharded tier |\n"
            "| `--tol T` / `--max-iter K` | tolerance and cap |\n"
            "| `--hot-rps RPS` | replicate a hot pattern |\n"
            "| `--requests N` | see also `--gone` in this cell |\n")
    # only first-column flags count: `--gone` sits in the meaning column
    assert check_docs.stale_flag_rows(text) == ["--hot-rps"]


def test_bench_readme_names_every_declared_workload_and_metric():
    assert check_docs.undocumented_bench_names() == []
    # a family placeholder covers its members; an absent name is caught
    text = "cold_mix `caller.solve_s.<pattern>`"
    missing = check_docs.undocumented_bench_names(text)
    assert "caller.solve_s.kkt02" not in missing
    assert "cold_mix" not in missing
    assert "warm_newton" in missing


def test_every_counter_is_spelled_by_the_module_the_catalog_names():
    assert check_docs.stale_counter_emitters() == []


def test_lint_catches_a_stale_counter_emitter():
    from repro.obs.counters import CounterSpec

    stale = check_docs.stale_counter_emitters([
        CounterSpec("factor.flops", "flop",
                    "repro/factor/gesp.py, repro/factor/gone.py", ""),
        CounterSpec("factor.flops", "flop", "repro/sparse/ops.py", ""),
    ])
    # a module that does not exist, and one that never emits the name
    assert stale == [("factor.flops", "repro/factor/gone.py"),
                     ("factor.flops", "repro/sparse/ops.py")]


def test_kernels_md_contract_table_is_the_protocol():
    from repro import kernels

    assert check_docs.kernel_table_drift() == []
    ops = sorted(kernels.OPS)
    assert len(ops) == 7 and all(callable(getattr(kernels, op)) for op in ops)
    rows = [f"| `{op}(d, x)` | somewhere | something |" for op in ops]
    assert check_docs.kernel_table_drift("\n".join(rows)) == []
    # a row the module dropped, and an op the table never got
    stale = rows + ["| `csc_lower_multi(...)` | multi-RHS | gone |"]
    assert check_docs.kernel_table_drift("\n".join(stale)) == \
        ["csc_lower_multi"]
    assert check_docs.kernel_table_drift("\n".join(rows[1:])) == [ops[0]]


def test_no_dangling_file_names():
    assert check_docs.dangling_file_names() == []


def test_lint_catches_a_dangling_file_name():
    text = ("the seeded trajectory of `scripts/bench_trajectory.py` and "
            "``benchmarks/bench_gone.py`` write BENCH_gone.json; see "
            "`tests/test_docs_lint.py::test_no_dangling_file_names`, "
            "`docs/KERNELS.md`, bench_orderings.py and `src/repro/*.py`")
    assert check_docs.dangling_file_names({"X.md": text}) == [
        ("X.md", "BENCH_gone.json"),
        ("X.md", "bench_gone.py"),
        ("X.md", "bench_trajectory.py"),
        ("X.md", "benchmarks/bench_gone.py"),
        ("X.md", "scripts/bench_trajectory.py"),
    ]
