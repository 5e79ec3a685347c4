"""The execution backend: compiled programs and integer-tuple states.

Every explorer runs on :mod:`repro.backend.packed`.  The interpreted
rules it is checked against stay where they are: the step rules in
:mod:`repro.promising.steps`, the reference certification
(:func:`~repro.promising.certification.certify_thread`), machine steps
(:func:`~repro.promising.machine.machine_transitions`) and the Flat
transition relation (:func:`~repro.flat.explorer.successors`).
"""

from .packed import PackedFlatBackend, PackedPromisingBackend

__all__ = ["PackedFlatBackend", "PackedPromisingBackend"]
