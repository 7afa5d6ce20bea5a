"""Equivalence golden for the script engine.

For every script and handler the substrate crawls run
(``tests/substrate_crawls.py``) it records the outcome (the value, or
the error's type and message), the interpreter steps the run charged
and, at each ``XMLHttpRequest.send()``, the hot-node signature and the
call-stack depth.  It records the same for the ``js`` and
``js-mutated`` cases among fuzz seeds 0-1999, run as the fuzz pipeline
runs them.  ``script_golden.json`` was recorded from the tree-walking
evaluator; the closure compiler that replaced it must reproduce it
entry for entry.

Rewrite after an intended change with
``PYTHONPATH=src python -m tests.js.test_script_golden --regen``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

from repro.browser.page import Page
from repro.errors import ReproError
from repro.js import HostConstructor, HostObject, JSArray, JSFunction, JSObject, NativeFunction
from repro.js.interpreter import Interpreter
from repro.js.lexer import tokenize
from repro.js.parser import parse_program
from repro.js.values import UNDEFINED
from repro.net.xhr import XMLHttpRequest
from repro.testgen.fuzz import FUZZ_MAX_STEPS, generate_case
from tests.substrate_crawls import digest, run_crawls

GOLDEN = Path(__file__).with_name("script_golden.json")

FUZZ_SEEDS = range(2000)


def describe(value, depth: int = 0) -> str:
    """A canonical rendering of a script value: type-exact for
    primitives (``-0`` and ``0`` differ), structural for arrays and
    objects down to depth 3."""
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return f"int {value}"
    if isinstance(value, str):
        return json.dumps(value)
    if depth >= 3:
        return f"<{type(value).__name__}>"
    if isinstance(value, JSArray):
        return "[" + ",".join(describe(item, depth + 1) for item in value.elements) + "]"
    if isinstance(value, JSObject):
        return "{" + ",".join(
            f"{json.dumps(key)}:{describe(item, depth + 1)}"
            for key, item in value.properties.items()
        ) + "}"
    if isinstance(value, JSFunction):
        return f"function {value.name}({','.join(value.params)})"
    if isinstance(value, (NativeFunction, HostConstructor)):
        return f"native {value.name}"
    if isinstance(value, HostObject):
        return f"host {value.host_class}"
    return f"python {type(value).__name__}"


def clip(text: str) -> str:
    """``text``, hashed past 200 characters."""
    return text if len(text) <= 200 else "# " + digest(text)


def outcome(run) -> str:
    """``= value`` or ``! Error: message`` of ``run()``."""
    try:
        return clip("= " + describe(run()))
    except ReproError as error:
        return clip(f"! {type(error).__name__}: {error}")


def crawl_entries() -> list:
    """``[source key, steps, outcome, [[signature, stack depth], ...]]``
    per script run, in crawl order."""
    entries: list = []
    sends: list = []
    execute = Page._execute
    signature = XMLHttpRequest._stack_signature

    def recording_execute(page, run, source):
        before, first_send = page.interpreter.steps, len(sends)
        text = "! not a ReproError"
        try:
            result = execute(page, run, source)
        except ReproError as error:
            text = f"! {type(error).__name__}: {error}"
            raise
        else:
            text = "= " + describe(result)
        finally:
            entries.append(
                [digest(source), page.interpreter.steps - before, clip(text), sends[first_send:]]
            )
            del sends[first_send:]
        return result

    def recording_signature(xhr, interp):
        key = signature(xhr, interp)
        sends.append([key, len(interp.call_stack)])
        return key

    with mock.patch.object(Page, "_execute", recording_execute), mock.patch.object(
        XMLHttpRequest, "_stack_signature", recording_signature
    ):
        run_crawls()
    return entries


def fuzz_entries() -> list:
    """``[seed, steps, outcome]`` per ``js``/``js-mutated`` fuzz seed."""
    entries = []
    for seed in FUZZ_SEEDS:
        case = generate_case(seed)
        if not case.kind.startswith("js"):
            continue
        interp = Interpreter(max_steps=FUZZ_MAX_STEPS)

        def run(text=case.text, interp=interp):
            tokenize(text)
            return interp.execute_program(parse_program(text))

        text = outcome(run)
        entries.append([seed, interp.steps, text])
    return entries


def record() -> dict:
    return {"crawls": crawl_entries(), "fuzz": fuzz_entries()}


def first_difference(name: str, got: list, want: list) -> str:
    for index, (left, right) in enumerate(zip(got, want)):
        if left != right:
            return f"{name}[{index}]: got {left!r}, golden {right!r}"
    return f"{name}: {len(got)} entries, golden has {len(want)}"


def test_scripts_run_as_recorded():
    golden = json.loads(GOLDEN.read_text())
    got = crawl_entries()
    assert got == golden["crawls"], first_difference("crawls", got, golden["crawls"])
    assert len(got) > 600
    assert any(sends for *_, sends in got)


def test_fuzz_programs_run_as_recorded():
    golden = json.loads(GOLDEN.read_text())
    got = fuzz_entries()
    assert got == golden["fuzz"], first_difference("fuzz", got, golden["fuzz"])
    assert len(got) == 1000


def write_golden() -> None:
    recorded = record()
    lines = ["{"]
    for section in ("crawls", "fuzz"):
        entries = recorded[section]
        lines.append(f'  "{section}": [')
        lines += [
            f"    {json.dumps(entry, ensure_ascii=True)}{',' if i < len(entries) - 1 else ''}"
            for i, entry in enumerate(entries)
        ]
        lines.append("  ]," if section == "crawls" else "  ]")
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"{GOLDEN}: {len(recorded['crawls'])} script runs, {len(recorded['fuzz'])} fuzz cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.js.test_script_golden --regen")
    write_golden()
