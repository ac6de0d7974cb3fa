"""Which lines of given functions run during a call, and how often, by
`sys.settrace`.

`lines_run(functions, call)` calls `call()` with a tracer that counts the
line events of the functions' own code objects (not of code they call)
and returns what the call returned with, per function, the number of
times each of its lines ran: a line is in the count exactly when it ran,
and the counts summed are the work done in the function's own code.
`marker_line(function, marker)` names a line by a piece of its source
instead of its number: the line on which `marker`, which must occur
exactly once in the function's source, ends.  So a test says "this
statement ran" without pinning line numbers that any edit above moves.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from typing import Any, Callable, Iterable


def marker_line(function: Callable, marker: str) -> int:
    """The file line on which the one occurrence of `marker` in
    `function`'s source ends."""
    lines, first = inspect.getsourcelines(function)
    source = "".join(lines)
    at = source.find(marker)
    if at < 0 or source.find(marker, at + 1) >= 0:
        raise ValueError(f"{marker!r} must occur exactly once in {function.__qualname__}")
    return first + source.count("\n", 0, at + len(marker))


def lines_run(
    functions: Iterable[Callable], call: Callable[[], Any]
) -> tuple[Any, dict[Callable, Counter[int]]]:
    """`call()`'s result and, for each function, how many times each file
    line of its code object ran during the call."""
    by_code = {inspect.unwrap(f).__code__: f for f in functions}
    ran: dict[Callable, Counter[int]] = {f: Counter() for f in by_code.values()}

    def local(frame, event, arg):
        if event == "line":
            ran[by_code[frame.f_code]][frame.f_lineno] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in by_code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, ran
