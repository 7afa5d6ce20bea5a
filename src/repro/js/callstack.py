"""The interpreter's call stack.

Hot-node detection reads it (section 4.4.1): when ``XMLHttpRequest.send``
runs, the topmost *script* frame names the function whose execution
reaches the network, and its actual arguments make the hot call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.js.values import to_string


@dataclass
class StackFrame:
    """One entry of the interpreter's call stack."""

    function_name: str
    arguments: list[Any] = field(default_factory=list)
    #: True when the frame belongs to a native (Python-backed) function.
    #: Hot-node detection skips native frames such as ``send`` to find
    #: the topmost *script* function (section 4.4.1).
    native: bool = False

    def render_arguments(self) -> str:
        """Actual parameter values in the canonical hot-node format."""
        return ", ".join(to_string(argument) for argument in self.arguments)

    def signature(self) -> str:
        """``name(arg, arg, ...)`` — the thesis' StackInfo string."""
        return f"{self.function_name}({self.render_arguments()})"


class CallStack:
    """The interpreter's stack of :class:`StackFrame` objects."""

    def __init__(self) -> None:
        self._frames: list[StackFrame] = []

    def __len__(self) -> int:
        return len(self._frames)

    def push(self, frame: StackFrame) -> None:
        self._frames.append(frame)

    def pop(self) -> StackFrame:
        return self._frames.pop()

    def top_script_frame(self) -> Optional[StackFrame]:
        """The topmost non-native frame (the currently executing *script*
        function), or ``None`` when only native frames are on the stack."""
        for frame in reversed(self._frames):
            if not frame.native:
                return frame
        return None

    def __repr__(self) -> str:
        chain = " > ".join(frame.function_name for frame in self._frames)
        return f"CallStack({chain})"
