"""Crash-fuzzing for the language substrate, with seed shrinking.

The conformance checks prove the crawlers agree with the spec; this
module attacks the layer *below* them: the JavaScript lexer → parser →
interpreter pipeline and the DOM parser.  Both are total functions over
arbitrary text by contract — any input may be *rejected* (a
:class:`~repro.errors.ReproError` subclass: ``JsSyntaxError``,
``JsRuntimeError``, ``DomError``, ...) but must never escape with
a raw Python exception (``IndexError``, ``RecursionError``, ...).  A
raw exception is a **crash**.

Each fuzz case is derived from a single integer seed, in one of four
kinds:

* ``js`` — a structured program sampled from a small grammar of the
  supported dialect (mostly valid; exercises the interpreter);
* ``js-mutated`` — the same, then corrupted by byte-level mutations
  (exercises lexer/parser error paths);
* ``markup`` — a nested tag soup with event attributes (exercises the
  DOM parser's recovery);
* ``markup-mutated`` — the same, corrupted.

Failures shrink: :func:`shrink_case` greedily deletes line and
character chunks while the same exception type still reproduces,
yielding a minimal repro to pin in a regression test.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dom.parser import parse_document
from repro.errors import ReproError
from repro.js.interpreter import Interpreter
from repro.js.lexer import tokenize
from repro.js.parser import parse_program

#: Case kinds, chosen round-robin by seed so every pipeline is hit
#: uniformly across any contiguous seed range.
CASE_KINDS = ("js", "js-mutated", "markup", "markup-mutated")

#: Interpreter step budget per case: small enough that sampled ``while``
#: loops terminate instantly via JsStepLimitError (an allowed outcome).
FUZZ_MAX_STEPS = 5_000

_IDENTIFIERS = ("a", "b", "c", "d", "acc", "item", "total")
_STRINGS = ("alpha", "beta", "gamma", "delta", "")
_BINARY_OPS = ("+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||")
_TAGS = ("div", "span", "ul", "li", "a", "p", "h1", "table", "tr", "td", "em")
_ATTRS = ("id", "class", "href", "onclick", "onmouseover", "title")
_MARKUP_NOISE = ("<", ">", "</", "<!--", "-->", "&amp;", "&", '"', "='", "<x", "< div>")


@dataclass(frozen=True)
class FuzzCase:
    """One generated input for one pipeline."""

    kind: str
    seed: int
    text: str


@dataclass(frozen=True)
class CrashReport:
    """A raw (non-``ReproError``) exception escaping a pipeline."""

    case: FuzzCase
    exc_type: str
    message: str

    def describe(self) -> str:
        return (
            f"seed {self.case.seed} [{self.case.kind}]: "
            f"{self.exc_type}: {self.message} "
            f"(input {len(self.case.text)} chars)"
        )


@dataclass
class FuzzSummary:
    """Outcome of a corpus run."""

    cases_run: int = 0
    #: Rejections per allowed exception type (diagnostic only).
    rejections: Counter = field(default_factory=Counter)
    crashes: list[CrashReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.crashes


# -- case generation ---------------------------------------------------------------


def _gen_expression(rng: random.Random, depth: int = 0) -> str:
    choices = ["number", "string", "identifier"]
    if depth < 3:
        choices += ["binary", "binary", "call", "array", "index", "unary"]
    kind = rng.choice(choices)
    if kind == "number":
        return str(rng.randint(-9, 99))
    if kind == "string":
        return f'"{rng.choice(_STRINGS)}"'
    if kind == "identifier":
        return rng.choice(_IDENTIFIERS)
    if kind == "unary":
        return f"-({_gen_expression(rng, depth + 1)})"
    if kind == "binary":
        op = rng.choice(_BINARY_OPS)
        left = _gen_expression(rng, depth + 1)
        right = _gen_expression(rng, depth + 1)
        return f"({left} {op} {right})"
    if kind == "call":
        args = ", ".join(
            _gen_expression(rng, depth + 1) for _ in range(rng.randint(0, 2))
        )
        return f"fn{rng.randint(0, 2)}({args})"
    if kind == "array":
        items = ", ".join(
            _gen_expression(rng, depth + 1) for _ in range(rng.randint(0, 3))
        )
        return f"[{items}]"
    # index
    return f"[{_gen_expression(rng, depth + 1)}][{rng.randint(0, 4)}]"


def _gen_statement(rng: random.Random, depth: int = 0) -> str:
    choices = ["var", "assign", "expr", "return"]
    if depth < 2:
        choices += ["if", "while", "function"]
    kind = rng.choice(choices)
    if kind == "var":
        return f"var {rng.choice(_IDENTIFIERS)} = {_gen_expression(rng)};"
    if kind == "assign":
        return f"{rng.choice(_IDENTIFIERS)} = {_gen_expression(rng)};"
    if kind == "expr":
        return f"{_gen_expression(rng)};"
    if kind == "return":
        return f"return {_gen_expression(rng)};"
    if kind == "if":
        body = _gen_statement(rng, depth + 1)
        alt = _gen_statement(rng, depth + 1) if rng.random() < 0.4 else ""
        text = f"if ({_gen_expression(rng)}) {{ {body} }}"
        return text + (f" else {{ {alt} }}" if alt else "")
    if kind == "while":
        counter = rng.choice(_IDENTIFIERS)
        body = _gen_statement(rng, depth + 1)
        return (
            f"var {counter} = 0; "
            f"while ({counter} < {rng.randint(1, 6)}) "
            f"{{ {counter} = {counter} + 1; {body} }}"
        )
    # function declaration + immediate call
    name = f"fn{rng.randint(0, 2)}"
    params = ", ".join(rng.sample(_IDENTIFIERS, k=rng.randint(0, 2)))
    body = _gen_statement(rng, depth + 1)
    return f"function {name}({params}) {{ {body} }} {name}();"


def _gen_program(rng: random.Random) -> str:
    return "\n".join(_gen_statement(rng) for _ in range(rng.randint(1, 8)))


def _gen_markup(rng: random.Random) -> str:
    def element(depth: int) -> str:
        tag = rng.choice(_TAGS)
        attrs = ""
        for _ in range(rng.randint(0, 2)):
            name = rng.choice(_ATTRS)
            value = rng.choice(("x", "go(1)", "nav main", "", "a&b"))
            attrs += f' {name}="{value}"'
        if depth >= 3 or rng.random() < 0.3:
            return f"<{tag}{attrs}>text{rng.randint(0, 9)}</{tag}>"
        inner = "".join(element(depth + 1) for _ in range(rng.randint(1, 3)))
        return f"<{tag}{attrs}>{inner}</{tag}>"

    body = "".join(element(0) for _ in range(rng.randint(1, 4)))
    return f"<html><head><title>fuzz</title></head><body>{body}</body></html>"


def mutate_text(rng: random.Random, text: str, mutations: int = 4) -> str:
    """Corrupt ``text`` with random deletions, duplications and noise."""
    for _ in range(rng.randint(1, mutations)):
        if not text:
            break
        op = rng.choice(("delete", "duplicate", "insert", "truncate"))
        i = rng.randrange(len(text))
        j = min(len(text), i + rng.randint(1, 12))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        elif op == "insert":
            noise = rng.choice(_MARKUP_NOISE + ('"', "(", "}", ";", "\\", "\x00"))
            text = text[:i] + noise + text[i:]
        else:  # truncate
            text = text[:i]
    return text


def generate_case(seed: int) -> FuzzCase:
    """The fuzz input of ``seed`` — fully determined by it."""
    rng = random.Random(seed)
    kind = CASE_KINDS[seed % len(CASE_KINDS)]
    if kind == "js":
        text = _gen_program(rng)
    elif kind == "js-mutated":
        text = mutate_text(rng, _gen_program(rng))
    elif kind == "markup":
        text = _gen_markup(rng)
    else:
        text = mutate_text(rng, _gen_markup(rng))
    return FuzzCase(kind=kind, seed=seed, text=text)


# -- execution ---------------------------------------------------------------------


def _run_js(text: str) -> None:
    tokenize(text)
    program = parse_program(text)
    Interpreter(max_steps=FUZZ_MAX_STEPS).execute_program(program)


def _run_markup(text: str) -> None:
    parse_document(text, url="http://fuzz.test/")


def pipeline_for(kind: str) -> Callable[[str], None]:
    if kind.startswith("js"):
        return _run_js
    if kind.startswith("markup"):
        return _run_markup
    raise ValueError(f"unknown fuzz kind {kind!r}")


def run_case(case: FuzzCase, summary: Optional[FuzzSummary] = None) -> Optional[CrashReport]:
    """Feed one case through its pipeline; report a crash, if any."""
    if summary is not None:
        summary.cases_run += 1
    try:
        pipeline_for(case.kind)(case.text)
    except ReproError as exc:
        # Clean rejection — the contract the fuzzer enforces.
        if summary is not None:
            summary.rejections[type(exc).__name__] += 1
        return None
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        report = CrashReport(
            case=case, exc_type=type(exc).__name__, message=str(exc)
        )
        if summary is not None:
            summary.crashes.append(report)
        return report
    return None


def fuzz_corpus(seeds) -> FuzzSummary:
    """Run every seed's case; collect rejections and crashes."""
    summary = FuzzSummary()
    for seed in seeds:
        run_case(generate_case(seed), summary)
    return summary


# -- shrinking ---------------------------------------------------------------------


def shrink_text(text: str, still_fails: Callable[[str], bool]) -> str:
    """Greedy delta-debugging: drop line then character chunks while
    ``still_fails`` keeps returning True.  Chunk sizes halve from half
    the input down to single elements, restarting after any success."""
    for split in ("\n", None):
        parts = text.split(split) if split else list(text)
        chunk = max(1, len(parts) // 2)
        while chunk >= 1:
            i, shrunk = 0, False
            while i < len(parts):
                candidate_parts = parts[:i] + parts[i + chunk :]
                joiner = split if split else ""
                candidate = joiner.join(candidate_parts)
                if candidate != text and still_fails(candidate):
                    parts = candidate_parts
                    text = candidate
                    shrunk = True
                else:
                    i += chunk
            chunk = chunk // 2 if not shrunk else max(1, chunk // 2)
        text = (split if split else "").join(parts)
    return text


def shrink_case(report: CrashReport) -> FuzzCase:
    """Minimal input (same kind, same exception type) for a crash."""
    pipeline = pipeline_for(report.case.kind)

    def still_fails(candidate: str) -> bool:
        try:
            pipeline(candidate)
        except ReproError:
            return False
        except Exception as exc:  # noqa: BLE001 - reproduction probe
            return type(exc).__name__ == report.exc_type
        return False

    minimal = shrink_text(report.case.text, still_fails)
    return FuzzCase(kind=report.case.kind, seed=report.case.seed, text=minimal)
