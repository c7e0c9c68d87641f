"""Exact classification of cyclic and finite Dehn surgeries on (p,q,r)
pretzel knots, with rule-by-rule certificates that replay.

The entry points are re-exported here; every submodule name, such as
``pretzel_surgery.classify``, stays the submodule.
"""

from .classify import classify_cyclic, classify_finite, emit_certificate
from .norms import cyclic_infeasibility_minus2_5_q
from .replay import replay_certificate
from .sweeps import sweep_cyclic, sweep_finite

__version__ = "0.1.0"
