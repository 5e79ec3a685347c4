"""The execution backend: compiled programs and integer-tuple states.

Every explorer runs on :mod:`repro.backend.packed`.  The interpreted
rules it is checked against stay where they are: the step rules in
:mod:`repro.promising.steps`, the reference certification, which also
answers the §7 completion sets
(:func:`~repro.promising.certification.find_and_certify`), machine steps
(:func:`~repro.promising.machine.machine_transitions`) and the Flat
transition relation (:func:`~repro.flat.explorer.successors`).
"""

from .packed import PackedFlatBackend, PackedPromisingBackend

__all__ = ["PackedFlatBackend", "PackedPromisingBackend"]
