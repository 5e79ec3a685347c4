"""Per-layer timing by wrapping the program's public functions.

A :class:`Tracer` replaces a function or method *at the name its caller
looks up* — the module global a caller reads (``repro.harness.jobs`` calls
its own ``explore``), or the class attribute an instance method resolves
to — with a wrapper that adds the call's wall time and count under a
metric name.  Nothing inside the program changes; :meth:`Tracer.restore`
puts every original back.  Targets that do not exist in the checkout
(a layer renamed or deleted by a later change) are skipped, so the traced
run keeps working and reports zero for them.

Names may contain ``{model}``: the wrappers installed with ``scope=``
set the model for every call they enclose, so per-model work (e.g.
certification under promise-first vs. naive exploration) is kept apart.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.model = ""
        #: ``(owner, attribute, original)`` of every live patch, oldest first.
        self.patched: list[tuple[object, str, object]] = []

    def patch(
        self,
        target: str,
        name: str,
        *,
        scope: Optional[str] = None,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> bool:
        """Wrap ``"module:Attr.path"``; returns whether the target exists."""
        module_name, _, qualname = target.partition(":")
        *path, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = tracer.model
            if scope is not None:
                tracer.model = scope
            key = name.format(model=tracer.model)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.seconds[key] += time.perf_counter() - start
                tracer.calls[key] += 1
                tracer.model = outer
            if on_result is not None:
                on_result(tracer, result)
            return result

        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
