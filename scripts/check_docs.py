#!/usr/bin/env python
"""Docs lint: keep the docs/ tree honest.

Checks (run in the test suite via tests/test_docs_lint.py, or directly
with ``python scripts/check_docs.py`` — the script puts its own ``src/``
on ``sys.path``):

1. every package under ``src/repro/`` — including nested subpackages —
   is mentioned in ``docs/ARCHITECTURE.md`` (as ``repro.<dotted name>``),
   so the module map cannot silently go stale when a package is added;
2. every counter in the :data:`repro.obs.counters.COUNTERS` catalog is
   documented in ``docs/OBSERVABILITY.md``, so the counter reference
   stays complete;
3. every ``docs/*.md`` file is linked from the ``docs/README.md``
   index, so a new doc cannot be orphaned;
4. every ``--flag`` of every ``python -m repro`` command (enumerated
   from the real parser, ``repro.__main__.build_parser``) is mentioned
   in at least one doc under ``docs/``, and every ``--flag`` in the
   first column of a ``docs/README.md`` flag table is one the parser
   accepts, so the CLI surface and its documentation cannot drift apart
   in either direction;
5. every workload and metric ``BENCHMARK.json`` declares is named in
   ``bench/README.md`` (read-only here: the benchmark is changed by its
   own PRs only), so the yardstick's documentation lists what it prints;
6. every module a catalog entry's ``where`` names exists under ``src/``
   and contains that counter's name as a string literal, so the catalog
   keeps pointing at the code that emits each counter when emitters move;
7. the first column of the ops table in ``docs/KERNELS.md`` names
   exactly the dense ops ``repro.kernels`` exports (``kernels.OPS``), so
   the documented list cannot keep an op the code dropped (or miss one
   it gained);
8. no dangling file names: every ``BENCH_<name>.json``, every
   ``bench_<name>.py`` (under ``benchmarks/`` or ``scripts/``), every
   ``scripts/<name>.py`` and every backticked ``src/``, ``tests/``,
   ``docs/``, ``bench/``, ``benchmarks/`` or ``examples/`` path named in
   ``docs/*.md``, ``README.md``, ``EXPERIMENTS.md``, ``DESIGN.md`` or a
   module under ``src/`` exists in the tree, so deleting or renaming a
   file cannot leave its name behind in prose;
9. every ``docs/<NAME>.md, "<title>"`` citation in ``docs/*.md``,
   ``README.md``, ``DESIGN.md``, a module under ``src/`` or a skill
   under ``.claude/skills/`` names a heading (``# title``) or a bold
   lead-in (``**title``) of that doc, so merging or renaming a section
   cannot leave a citation pointing nowhere (CHANGES.md is history and
   is not read).

A green run ends with three lines.  ``knobs: <GESPOptions fields> /
<ServiceConfig fields> / <CLI flags> / <REPRO_* variables>`` counts
everything a user can set (the variables are the string literals under
``src/`` that are exactly a ``REPRO_<NAME>``, so a name in prose or a
docstring does not count).  ``packages: <name> <lines> / ...`` gives the
lines of each package under ``src/repro/`` (subpackages included) and of
each top-level module (``kernels.py``), by name.  Last, ``src: <modules>
modules / <lines> lines`` — every ``*.py`` file under ``src/`` and every
line in them, the way ROADMAP.md and the CHANGES.md entries count source
size (``find src -name '*.py' | xargs cat | wc -l``).  ROADMAP's
re-counted numbers come from these lines, not from hand.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))
SRC = REPO / "src" / "repro"
DOCS = REPO / "docs"
ARCHITECTURE = DOCS / "ARCHITECTURE.md"
OBSERVABILITY = DOCS / "OBSERVABILITY.md"
KERNELS = DOCS / "KERNELS.md"
DOCS_INDEX = DOCS / "README.md"
BENCHMARK = REPO / "BENCHMARK.json"
BENCH_README = REPO / "bench" / "README.md"


def repro_packages():
    """All repro subpackage names (directories with an __init__.py),
    dotted for nesting — e.g. ``service`` and ``service.shard``."""
    names = []
    for init in SRC.rglob("__init__.py"):
        pkg = init.parent
        if pkg == SRC:
            continue
        names.append(".".join(pkg.relative_to(SRC).parts))
    return sorted(names)


def missing_packages(text=None):
    """Packages not mentioned in ARCHITECTURE.md as ``repro.<name>``."""
    if text is None:
        text = ARCHITECTURE.read_text(encoding="utf-8")
    return [name for name in repro_packages()
            if f"repro.{name}" not in text]


def missing_counters(text=None):
    """Catalog counters whose names never appear in OBSERVABILITY.md."""
    from repro.obs import counter_names

    if text is None:
        text = OBSERVABILITY.read_text(encoding="utf-8")
    return [name for name in counter_names() if name not in text]


def docs_files():
    """Every doc under docs/ that the index must link (not itself)."""
    return sorted(p.name for p in DOCS.glob("*.md")
                  if p.name != DOCS_INDEX.name)


def missing_from_index(text=None):
    """docs/*.md files the docs/README.md index never links.

    A link counts in any markdown form that names the file —
    ``[...](SHARDING.md)`` or a bare mention; what matters is that the
    index acknowledges the doc exists.
    """
    if text is None:
        text = DOCS_INDEX.read_text(encoding="utf-8")
    return [name for name in docs_files() if name not in text]


def cli_flags():
    """Every ``--flag`` the ``python -m repro`` parser accepts
    (global flags plus each subcommand's), deduplicated, ``--help``
    excluded."""
    import argparse

    from repro.__main__ import build_parser

    flags = set()

    def walk(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)
                continue
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    flags.add(opt)

    walk(build_parser())
    return sorted(flags)


def undocumented_flags(text=None):
    """CLI flags that appear in no doc under docs/."""
    if text is None:
        text = "\n".join(p.read_text(encoding="utf-8")
                         for p in sorted(DOCS.glob("*.md")))
    return [flag for flag in cli_flags() if flag not in text]


def stale_flag_rows(text=None):
    """Flags the first column of a docs/README.md table row names that
    the parser does not accept, sorted."""
    if text is None:
        text = DOCS_INDEX.read_text(encoding="utf-8")
    documented = {flag
                  for cell in re.findall(r"^\|([^|\n]*)\|", text, flags=re.M)
                  for flag in re.findall(r"`(--[\w-]+)", cell)}
    return sorted(documented - set(cli_flags()))


def undocumented_bench_names(text=None):
    """Workloads and metrics of BENCHMARK.json that bench/README.md never
    names.  A member of a per-pattern or per-shard family
    (``caller.solve_s.cfd06``) counts as named when the family is
    (``caller.solve_s.<pattern>``)."""
    import json

    if text is None:
        text = BENCH_README.read_text(encoding="utf-8")
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [entry["name"]
             for section in ("workloads", "end_to_end", "per_layer")
             for entry in declared[section]]
    def family(name):
        return name.rpartition(".")[0] + ".<" if "." in name else name

    return [name for name in names
            if name not in text and family(name) not in text]


def stale_counter_emitters(counters=None):
    """``(counter, module)`` pairs whose ``CounterSpec.where`` module is
    missing under ``src/`` or never spells the counter's name as a
    string literal."""
    if counters is None:
        from repro.obs.counters import COUNTERS as counters

    stale = []
    for spec in counters:
        for module in (m.strip() for m in spec.where.split(",")):
            path = REPO / "src" / module
            text = path.read_text(encoding="utf-8") if path.is_file() else ""
            if not any(f"{q}{spec.name}{q}" in text for q in "\"'"):
                stale.append((spec.name, module))
    return stale


def kernel_table_drift(text=None):
    """Ops the KERNELS.md table (rows ``| `op(...)` | ...``) and
    ``repro.kernels.OPS`` do not share, sorted."""
    from repro.kernels import OPS

    if text is None:
        text = KERNELS.read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `(\w+)\(", text, flags=re.M))
    return sorted(documented ^ set(OPS))


# (pattern, directories a match is resolved under) — check 8
_FILE_NAMES = (
    (re.compile(r"\bBENCH_\w+\.json\b"), ("",)),
    (re.compile(r"\bbench_\w+\.py\b"), ("benchmarks", "scripts")),
    (re.compile(r"\bscripts/\w+\.py\b"), ("",)),
    (re.compile(r"`((?:src|tests|docs|bench|benchmarks|examples)/[\w./-]+)"
                r"(?=`|::)"), ("",)),
)


def prose_sources():
    """``{repo-relative name: text}`` of everything check 8 reads."""
    files = [*sorted(DOCS.glob("*.md")), REPO / "README.md",
             REPO / "EXPERIMENTS.md", REPO / "DESIGN.md",
             *sorted((REPO / "src").rglob("*.py"))]
    return {str(f.relative_to(REPO)): f.read_text(encoding="utf-8")
            for f in files if f.is_file()}


def dangling_file_names(texts=None):
    """``(source, name)`` pairs: file names a prose source spells that
    exist nowhere in the tree."""
    if texts is None:
        texts = prose_sources()
    dangling = set()
    for source, text in texts.items():
        for pattern, roots in _FILE_NAMES:
            for match in pattern.finditer(text):
                name = match.group(match.lastindex or 0)
                if not any((REPO / root / name).exists() for root in roots):
                    dangling.add((source, name))
    return sorted(dangling)


_CITATION = re.compile(r'docs/(\w+\.md), "([^"]+)"')


def citation_sources():
    """``{repo-relative name: text}`` of everything check 9 reads."""
    files = [*sorted(DOCS.glob("*.md")), REPO / "README.md",
             REPO / "DESIGN.md", *sorted((REPO / "src").rglob("*.py")),
             *sorted((REPO / ".claude" / "skills").rglob("*.md"))]
    return {str(f.relative_to(REPO)): f.read_text(encoding="utf-8")
            for f in files if f.is_file()}


def unresolved_citations(texts=None):
    """``(source, doc, title)`` of every citation whose doc has no heading
    ``title`` and no bold lead-in starting with it (whitespace, line
    breaks included, compares as one space), sorted."""
    if texts is None:
        texts = citation_sources()

    def flat(text):
        return " ".join(text.split())

    unresolved = set()
    for source, text in texts.items():
        for doc, title in _CITATION.findall(flat(text)):
            path = DOCS / doc
            raw = path.read_text(encoding="utf-8") if path.is_file() else ""
            headings = {flat(h) for h in re.findall(r"^#+ (.*)$", raw, re.M)}
            if title not in headings and f"**{title}" not in flat(raw):
                unresolved.add((source, f"docs/{doc}", title))
    return sorted(unresolved)


def src_size():
    """``(modules, lines)``: the ``*.py`` files under ``src/`` and the
    newlines in them (what ``find src -name '*.py' | xargs cat | wc -l``
    prints)."""
    files = list((REPO / "src").rglob("*.py"))
    return len(files), sum(f.read_bytes().count(b"\n") for f in files)


def package_sizes():
    """``[(name, lines)]`` for each package under ``src/repro/`` (its
    subpackages included) and each top-level module, by name — the
    per-package counts ROADMAP.md's size targets are read from."""
    return [(p.name, sum(f.read_bytes().count(b"\n") for f in (
        p.rglob("*.py") if p.is_dir() else [p])))
        for p in sorted(SRC.iterdir())
        if p.suffix == ".py" or (p / "__init__.py").is_file()]


def env_variables():
    """Every ``REPRO_<NAME>`` that is a whole string literal somewhere
    under ``src/`` — how an environment variable has to be spelt to be
    read."""
    quoted = re.compile(r"""(["'])(REPRO_[A-Z0-9_]+)\1""")
    return sorted({match.group(2)
                   for path in (REPO / "src").rglob("*.py")
                   for match in quoted.finditer(
                       path.read_text(encoding="utf-8"))})


def knob_counts():
    """``(GESPOptions fields, ServiceConfig fields, CLI flags, REPRO_*
    variables)``: every value a user can set."""
    from repro.driver.options import GESPOptions
    from repro.service.api import ServiceConfig

    return (len(dataclasses.fields(GESPOptions)),
            len(dataclasses.fields(ServiceConfig)),
            len(cli_flags()), len(env_variables()))


def main():
    status = 0
    if not ARCHITECTURE.is_file():
        print(f"missing: {ARCHITECTURE}")
        status = 1
    else:
        for name in missing_packages():
            print(f"docs/ARCHITECTURE.md: package repro.{name} not mentioned")
            status = 1
    if not OBSERVABILITY.is_file():
        print(f"missing: {OBSERVABILITY}")
        status = 1
    else:
        for name in missing_counters():
            print(f"docs/OBSERVABILITY.md: counter {name} not documented")
            status = 1
    if not DOCS_INDEX.is_file():
        print(f"missing: {DOCS_INDEX}")
        status = 1
    else:
        for name in missing_from_index():
            print(f"docs/README.md: {name} not linked from the index")
            status = 1
    for flag in undocumented_flags():
        print(f"docs/: CLI flag {flag} not documented in any doc")
        status = 1
    for flag in stale_flag_rows():
        print(f"docs/README.md: flag table names {flag}, which the CLI "
              "does not accept")
        status = 1
    if not BENCH_README.is_file():
        print(f"missing: {BENCH_README}")
        status = 1
    else:
        for name in undocumented_bench_names():
            print(f"bench/README.md: {name} (BENCHMARK.json) not named")
            status = 1
    for name, module in stale_counter_emitters():
        print(f"obs/counters.py: {name} is not emitted by src/{module} "
              "(missing module, or no such string literal in it)")
        status = 1
    for name in kernel_table_drift():
        print(f"docs/KERNELS.md: ops table and repro.kernels.OPS "
              f"disagree on {name}")
        status = 1
    for source, name in dangling_file_names():
        print(f"{source}: names {name}, which does not exist")
        status = 1
    for source, doc, title in unresolved_citations():
        print(f'{source}: cites {doc}, "{title}", which has no such section')
        status = 1
    if status == 0:
        print("docs lint: OK "
              f"({len(repro_packages())} packages, all counters "
              f"documented, {len(docs_files())} docs indexed, "
              f"{len(cli_flags())} CLI flags documented)")
        print("knobs: {} / {} / {} / {}".format(*knob_counts()))
        print("packages: " + " / ".join(
            f"{name} {lines}" for name, lines in package_sizes()))
        print("src: {} modules / {} lines".format(*src_size()))
    return status


if __name__ == "__main__":
    sys.exit(main())
