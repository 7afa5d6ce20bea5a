"""Repo tooling: the ``tools/ab_bench.py`` and ``tools/gc_share.py``
smokes, the trajectory report, the knob census, the ``src/`` line
ceiling and the journaled-write, lent-fragment, one-read-path,
generation, one-scorer and gc guards."""

import ast
import dataclasses
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.browser import Browser
from repro.crawler import CrawlerConfig
from repro.js import Interpreter
from repro.net.faults import RetryPolicy
from repro.search import RankingWeights, SegmentedIndex
from repro.serve.loadtest import LoadTestConfig
from repro.serve.service import ServeConfig
from repro.sites import SiteConfig

REPO = Path(__file__).resolve().parent.parent

#: Independently settable values per config object.  A new knob has to
#: edit a number here, in review; one value in use is a constant.
KNOB_CENSUS = {
    CrawlerConfig: 7,
    ServeConfig: 6,
    RetryPolicy: 4,
    LoadTestConfig: 4,
    SiteConfig: 5,
}


#: Parameters (without ``self``) of constructors that take settings
#: directly; the same rule as the census.
PARAMETER_CENSUS = {SegmentedIndex: 5, Browser: 8, Interpreter: 1}


def test_knob_census():
    counted = {config: len(dataclasses.fields(config)) for config in KNOB_CENSUS}
    assert counted == KNOB_CENSUS
    parameters = {
        cls: len(inspect.signature(cls.__init__).parameters) - 1 for cls in PARAMETER_CENSUS
    }
    assert parameters == PARAMETER_CENSUS


#: What ``make loc`` prints — lines of Python under ``src/``.  A PR
#: that grows ``src/`` edits this number, in review, as a new knob edits
#: the census; one that shrinks it lowers the pin to what it reached.
SRC_LINE_CEILING = 21_822


def test_src_line_ceiling():
    lines = sum(
        path.read_bytes().count(b"\n") for path in (REPO / "src").rglob("*.py")
    )
    assert lines <= SRC_LINE_CEILING


NODE_MUTATORS = {
    "replace_children", "append_child", "remove_child",
    "set_attribute", "remove_attribute", "detach",
}


def method_calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    ]


def handed_to_write(tree: ast.AST) -> set[int]:
    """The positional arguments of every ``.write(...)`` call, by ``id``."""
    return {id(argument) for call in method_calls(tree, "write") for argument in call.args}


def unjournaled_writes(source: str) -> list[str]:
    """Every mention of a node mutator that is not handed to ``Page.write``
    as the mutator to apply, as ``line:name``."""
    tree = ast.parse(source)
    handed_over = handed_to_write(tree)
    return sorted(
        f"{node.lineno}:{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in NODE_MUTATORS
        and id(node) not in handed_over
    )


def test_the_browser_writes_the_dom_only_through_page_write():
    # A binding that mutates a node directly does not crash: the write
    # is missing from the undo journal, a rollback leaves it in place
    # and two model states silently merge.
    for module in ("bindings.py", "page.py"):
        source = (REPO / "src" / "repro" / "browser" / module).read_text()
        assert unjournaled_writes(source) == [], module
    sample = (
        "page.write(element, Element.set_attribute, 'id', value)\n"
        "element.set_attribute('id', value)\n"
        "apply = element.append_child\n"
    )
    assert unjournaled_writes(sample) == ["2:set_attribute", "3:append_child"]


def fragment_leaks(source: str) -> tuple[int, list[str]]:
    """The ``.fragment(...)`` calls in ``source`` and, as ``line:name``,
    each place where the result of one goes anywhere but into a
    ``.write(...)`` call: directly, or through one local name."""
    tree = ast.parse(source)
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    written = handed_to_write(tree)
    calls = method_calls(tree, "fragment")
    leaks = []
    for call in calls:
        if id(call) in written:
            continue
        holder = parents[id(call)]
        if not (
            isinstance(holder, ast.Assign)
            and len(holder.targets) == 1
            and isinstance(holder.targets[0], ast.Name)
        ):
            leaks.append(f"{call.lineno}:fragment")
            continue
        scope = holder
        while not isinstance(scope, (ast.FunctionDef, ast.Module)):
            scope = parents[id(scope)]
        leaks += [
            f"{node.lineno}:{node.id}"
            for node in ast.walk(scope)
            if isinstance(node, ast.Name)
            and node.id == holder.targets[0].id
            and isinstance(node.ctx, ast.Load)
            and id(node) not in written
        ]
    return len(calls), sorted(leaks)


def test_lent_fragments_reach_the_tree_only_through_page_write():
    # Page.fragment lends the memoised nodes themselves.  Attached around
    # the journal they would not come back at the next restore: nothing
    # crashes, the memo is corrupt and later states silently merge.
    callers = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        calls, leaks = fragment_leaks(path.read_text())
        assert leaks == [], path
        if calls:
            callers[path.name] = calls
    assert callers == {"bindings.py": 1}  # the innerHTML setter
    sample = (
        "nodes = page.fragment(markup)\n"
        "page.write(element, Element.replace_children, nodes, parse_bytes=len(markup))\n"
        "page.write(element, Element.replace_children, page.fragment(markup))\n"
        "kept = page.fragment(markup)\n"
        "page.write(element, Element.replace_children, kept)\n"
        "element.children = kept\n"
        "element.replace_children(page.fragment(markup))\n"
    )
    assert fragment_leaks(sample) == (4, ["6:kept", "7:fragment"])


def functions_where(source: str, matches) -> set[str]:
    """The functions of ``source``, as ``Class.name``, that hold a node
    ``matches`` accepts."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(matches(inner) for inner in ast.walk(child)):
                    found.add(scope + child.name)

    visit(ast.parse(source), "")
    return found


#: The object view of a posting list: the class, its sort, the call
#: that built a list of them.  (Prose may still say a result state is
#: "materialized" by event replay — that is another matter.)
OBJECT_VIEW = re.compile(r"\b(Posting|sort_postings)\b|\bmaterialize\(")


def test_the_segment_write_path_moves_columns_not_postings():
    # Every read of the index is the block merge over ordinal columns;
    # flush, compaction and removal carry state ordinals from memtable
    # and mmap to varint blocks (or, in memory, to the view of the
    # buffer).  The object view — ``Posting``, ``Match`` — is built from
    # conjunction rows in query.py and nowhere else: a Posting built on
    # the way would not crash and would change no byte, it would cost a
    # third of the build again and feed the cyclic collector.
    search = REPO / "src" / "repro" / "search"
    assert not (search / "postings.py").exists()
    mentions = {
        module.name
        for module in search.glob("*.py")
        if OBJECT_VIEW.search(module.read_text())
    }
    assert mentions == {"query.py", "__init__.py"}
    sample = (
        "def flush(self) -> list[Posting]:\n"
        "    yield sort_postings(victims[0].materialize(term))\n"
    )
    assert len(OBJECT_VIEW.findall(sample)) == 3
    assert not OBJECT_VIEW.search("class SegmentPostingView:  # Postings materialize")


def calls_method(*names: str):
    """A node test: a call of ``<anything>.<one of names>(...)``."""
    return lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    )


def stores_flushed(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_flushed" and isinstance(
        node.ctx, (ast.Store, ast.Del)
    )


def mutates_flushed(node: ast.AST) -> bool:
    return (
        calls_method("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse")(node)
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "_flushed"
    )


def test_a_read_never_commits_and_a_generation_is_replaced_whole():
    # A read that called finalize() would not crash and would answer
    # right: it would write a segment file from a query thread.  A
    # ``_flushed`` changed in place would not crash either: the reader
    # that took it into a local would see it move.
    search = REPO / "src" / "repro" / "search"
    commits = calls_method("finalize", "flush")
    assert functions_where((search / "index.py").read_text(), commits) == {
        "Index.build", "Index.update_model",
    }
    assert functions_where((search / "segmented.py").read_text(), commits) == {
        "SegmentedIndex.finalize", "SegmentedIndex.add_model",
        "SegmentedIndex.compact_all", "SegmentedIndex.close",
    }
    publishers = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        source = path.read_text()
        assert functions_where(source, mutates_flushed) == set(), path
        if stored := functions_where(source, stores_flushed):
            publishers[path.name] = stored
    assert publishers == {"index.py": {"Index._publish"}}
    sample = (
        "class Disk(Index):\n"
        "    def postings(self, term):\n"
        "        self.finalize()\n"
        "    def flush(self):\n"
        "        self._flushed.append(reader)\n"
        "        self._flushed += (reader,)\n"
        "    def _merge(self):\n"
        "        survivors = list(self._flushed)\n"
        "        survivors.insert(0, merged)\n"
        "        self._publish(tuple(survivors))\n"
    )
    assert functions_where(sample, commits) == {"Disk.postings"}
    assert functions_where(sample, mutates_flushed) == {"Disk.flush"}
    assert functions_where(sample, stores_flushed) == {"Disk.flush"}


def reached_from(source: str, start: str) -> set[str]:
    """Every name the function ``start`` of ``source`` calls, directly
    or through what it calls on itself: ``self.name(...)``,
    ``super().name(...)`` and ``name(...)`` are followed into the
    functions of that name, a call on any other receiver is recorded
    and not followed.  By name, so it over-approximates: good enough to
    prove a *never*."""
    calls: dict[str, set[tuple[bool, str]]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = calls.setdefault(node.name, set())
            for inner in ast.walk(node):
                target = inner.func if isinstance(inner, ast.Call) else None
                if isinstance(target, ast.Name):
                    called.add((True, target.id))
                elif isinstance(target, ast.Attribute):
                    receiver = target.value
                    own = (isinstance(receiver, ast.Name) and receiver.id == "self") or (
                        isinstance(receiver, ast.Call) and getattr(receiver.func, "id", "") == "super"
                    )
                    called.add((own, target.attr))
    reached: set[str] = set()
    followed, frontier = {start}, [start]
    while frontier:
        for own, name in calls.get(frontier.pop(), ()):
            reached.add(name)
            if own and name not in followed:
                followed.add(name)
                frontier.append(name)
    return reached


def test_a_removal_never_writes_a_segment():
    # Removal retires ordinal ranges in the manifest; only compaction
    # writes.  A remove_urls that rewrote "just this once" would answer
    # right and cost a segment per page again.
    search = REPO / "src" / "repro" / "search"
    segmented = (search / "segmented.py").read_text()
    writers = {"write_segment", "_rewrite", "_merge", "flush", "maybe_compact", "compact_all"}
    removal = reached_from(segmented, "remove_urls")
    assert {"retire", "_commit", "_save_manifest"} <= removal
    assert removal & writers == set()
    # What it calls on its readers, followed in their module: the checks
    # and the mask, and no block read — a term's dead postings are
    # counted when a read asks, so a removal costs its page and not the
    # vocabulary.  A read reaches the count, and the count the blocks.
    segments = (search / "segments.py").read_text()
    block_reads = {"_dead_postings", "_decode", "decode_block_at", "decode_block", "read_uvarints"}
    retirement = reached_from(segments, "retire")
    assert retirement & (writers | block_reads) == set()
    assert {"_dead_postings", "_decode", "read_uvarints"} <= reached_from(segments, "view")
    assert writers - {"compact_all"} <= reached_from(segmented, "finalize")  # the guard sees them
    (rewrite,) = [
        node for node in ast.walk(ast.parse(segmented))
        if isinstance(node, ast.FunctionDef) and node.name == "_rewrite"
    ]
    assert [argument.arg for argument in rewrite.args.args] == ["self", "victims"]
    assert not (rewrite.args.kwonlyargs or rewrite.args.vararg or rewrite.args.kwarg)
    sample = (
        "def remove_urls(self, uris):\n"
        "    self._drop(uris)\n"
        "    reader.close()\n"
        "def _drop(self, uris):\n"
        "    return rewrite_all(self, uris)\n"
        "def rewrite_all(index, uris):\n"
        "    write_segment(path, rows, columns)\n"
        "def close(self):\n"
        "    self.flush()\n"
    )
    assert reached_from(sample, "remove_urls") == {"_drop", "close", "rewrite_all", "write_segment"}


def gc_tuning(source: str) -> list[str]:
    """Every ``gc.disable`` / ``gc.freeze`` / ``gc.set_threshold`` in
    ``source``, however the name was imported, as ``line:name``."""
    tuned = {"disable", "freeze", "set_threshold"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in tuned
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        ):
            found.append(f"{node.lineno}:{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [f"{node.lineno}:{name.name}" for name in node.names if name.name in tuned]
    return sorted(found)


def weight_reads(source: str) -> dict[str, set[str]]:
    """Per function of ``source`` that reads a ``RankingWeights`` field
    off anything but an argparse namespace (``args.pagerank`` is the
    CLI's path to a rank table), the fields it reads."""
    fields = {field.name for field in dataclasses.fields(RankingWeights)}
    reads: dict[str, set[str]] = {}
    for name in fields:
        for function in functions_where(
            source,
            lambda node: isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.ctx, ast.Load)
            and getattr(node.value, "id", None) != "args",
        ):
            reads.setdefault(function, set()).add(name)
    return reads


def test_eq_5_3_is_written_once_and_ranks_columns():
    # A second scorer would not crash: it would drift from the first in
    # the last bit of a float, and a shard would rank differently from
    # the engine.  A second term_proximity call site is a match
    # completed outside the bound.
    src = REPO / "src"
    engine = (src / "repro" / "search" / "engine.py").read_text()

    def completes(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "term_proximity"

    assert sum(map(completes, ast.walk(ast.parse(engine)))) == 1
    assert functions_where(engine, completes) == {"SearchEngine.select"}
    readers = {
        f"{path.name}:{function}": fields
        for path in sorted(src.rglob("*.py"))
        for function, fields in weight_reads(path.read_text()).items()
    }
    assert readers == {
        "engine.py:SearchEngine.select": {"pagerank", "ajaxrank", "tfidf", "proximity"}
    }
    for module in (engine, (src / "repro" / "parallel" / "sharding.py").read_text()):
        assert "partial_scores" not in module and "PartialScore" not in module
    sample = (
        "def rescore(weights, args):\n"
        "    return weights.tfidf * 2 + weights.proximity, args.pagerank\n"
        "class Shard:\n"
        "    def boost(self):\n"
        "        self.weights.pagerank = 1\n"
        "        return self.weights.ajaxrank\n"
    )
    assert weight_reads(sample) == {"rescore": {"tfidf", "proximity"}, "Shard.boost": {"ajaxrank"}}


def test_nothing_under_src_tunes_the_garbage_collector():
    # Half of a segment open used to be the collector walking the heap;
    # the answer was fewer containers per term, and stays that.
    for path in sorted((REPO / "src").rglob("*.py")):
        assert gc_tuning(path.read_text()) == [], path
    sample = "import gc\ngc.disable()\nfrom gc import freeze, collect\ngc.collect()\n"
    assert gc_tuning(sample) == ["2:disable", "3:freeze"]


def test_ab_bench_of_a_ref_against_itself():
    head = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=REPO, capture_output=True, text=True
    )
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    done = subprocess.run(
        [
            sys.executable, "tools/ab_bench.py", "HEAD", "HEAD",
            "--workload", "deep_crawl", "--pairs", "2", "--seed", "3",
            "--", "--scale", "smoke", "--seconds", "0.2",
        ],
        cwd=REPO, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    # Sides alternate: A first in the first pair, B first in the second.
    assert [line.split()[3] for line in done.stderr.splitlines()] == ["A", "B", "B", "A"]
    lines = done.stdout.splitlines()
    assert lines[0] == "deep_crawl, seed 3, 2 pair(s): A = HEAD, B = HEAD"
    metrics = [
        metric["name"]
        for metric in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    ]
    table = {line.split()[0]: line.split() for line in lines[2 : 2 + len(metrics)]}
    assert list(table) == metrics
    # The same code on both sides does the same counted work: all ties, no wins.
    assert table["work_cost"][-2:] == ["0/2", "2"]
    for name in metrics:
        for side in "AB":
            (listed,) = [line for line in lines if line.startswith(f"  {name} {side}: ")]
            assert len(listed.split(": ")[1].split(", ")) == 2
    assert [line.split(" of ")[0] for line in lines[-2:]] == ["  A: 0 failed", "  B: 0 failed"]


def test_ab_bench_copies_the_working_tree_as_git_lists_it(tmp_path, monkeypatch):
    # "." used to run in place, with its __pycache__, against a fresh
    # export of the other side: a location bias, not a code difference.
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import ab_bench
    finally:
        sys.path.remove(str(REPO / "tools"))
    tree = tmp_path / "tree"
    (tree / "pkg" / "__pycache__").mkdir(parents=True)
    (tree / ".gitignore").write_text("__pycache__/\n*.log\n")
    (tree / "pkg" / "tracked.py").write_text("x = 1\n")
    (tree / "pkg" / "__pycache__" / "tracked.cpython.pyc").write_bytes(b"stale")
    (tree / "run.log").write_text("ignored\n")
    git = ["git", "-C", str(tree)]
    if subprocess.run([*git, "init", "-q"]).returncode:
        pytest.skip("no git")
    subprocess.run([*git, "add", ".gitignore", "pkg/tracked.py"], check=True)
    (tree / "pkg" / "untracked.py").write_text("y = 2\n")
    monkeypatch.setattr(ab_bench, "REPO", tree.resolve())
    monkeypatch.chdir(tree)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    exported = ab_bench.checkout(".", scratch, "b")
    assert exported == scratch / "b"
    copied = sorted(str(path.relative_to(exported)) for path in exported.rglob("*") if path.is_file())
    assert copied == [".gitignore", "pkg/tracked.py", "pkg/untracked.py"]
    # Any other directory is still used where it is.
    assert ab_bench.checkout(str(tmp_path), scratch, "a") == tmp_path.resolve()


def test_gc_share_prints_one_row_per_repetition():
    done = subprocess.run(
        [sys.executable, "tools/gc_share.py", "deep_crawl", "--scale", "smoke", "--reps", "2"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    title, header, *rows = done.stdout.splitlines()
    assert title.startswith("deep_crawl, seed 7, smoke scale, ")
    assert header.split() == [
        "rep", "wall_ms", "gen0_ms", "gen1_ms", "gen2_ms", "collections", "collected", "gc_share",
    ]
    assert [row.split()[0] for row in rows] == ["1", "2"]
    for row in rows:
        wall, *pauses = map(float, row.split()[1:5])
        collections, collected = map(int, row.split()[5:7])
        assert wall > sum(pauses) >= 0 and collections >= 0 and collected >= 0
        assert row.endswith("%")


def test_bench_report_prints_each_metric_against_the_previous_commit(tmp_path):
    def row(commit, workload, seed, **metrics):
        return json.dumps({"commit": commit, "workload": workload, "seed": seed, "metrics": metrics})

    trajectory = tmp_path / "BENCH_e2e.jsonl"
    trajectory.write_text("\n".join([
        row("aaa", "serve_uncached", 7, work_per_s=800.0, op_p50_ms=0.5, work_cost=0.0),
        row("aaa", "serve_uncached", 8, work_per_s=700.0, op_p50_ms=0.6, work_cost=0.0),
        row("bbb", "serve_uncached", 7, work_per_s=1000.0, op_p50_ms=0.4, work_cost=0.0),
        row("ccc", "serve_uncached", 7, work_per_s=900.0, op_p50_ms=0.4, work_cost=2.0),
    ]) + "\n")
    report = [sys.executable, "tools/bench_report.py", "--file", str(trajectory)]
    done = subprocess.run(report, cwd=REPO, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    metrics = [
        metric["name"]
        for metric in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    ]
    assert header.split() == ["commit", "label", "workload", "seed", *metrics]
    cells = [re.findall(r"(\S+) \(([^)]*)\)", line) for line in lines]
    # Each row against the previous one of its workload and seed: the
    # seed-8 row is its own first, and bbb -> ccc is a step, not aaa -> ccc.
    assert [line.split()[:3] for line in lines] == [
        ["aaa", "serve_uncached", "7"], ["aaa", "serve_uncached", "8"],
        ["bbb", "serve_uncached", "7"], ["ccc", "serve_uncached", "7"],
    ]
    assert cells[0] == [("800", "new"), ("0.5", "new"), ("0", "new")]
    assert cells[1] == [("700", "new"), ("0.6", "new"), ("0", "new")]
    assert cells[2] == [("1000", "+25.0%"), ("0.4", "-20.0%"), ("0", "=")]
    assert cells[3] == [("900", "-10.0%"), ("0.4", "+0.0%"), ("2", "from 0")]
    assert all(line.split().count("-") == len(metrics) - 3 for line in lines)  # not recorded
    trajectory.write_text(row("aaa", "serve_uncached", 7) + "\n" + "{\"commit\": \"x\"}\n")
    done = subprocess.run(report, cwd=REPO, capture_output=True, text=True)
    assert done.returncode == 1 and done.stderr.strip().endswith(":2: not a trajectory row")
