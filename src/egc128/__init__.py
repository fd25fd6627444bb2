"""EGC128: expander-graph block cipher reference implementation and
cryptanalysis workbench.

Submodules:

* :mod:`egc128.params`   parameter/state types, round constants
* :mod:`egc128.cipher`   scalar encryption, key schedule, reduced family
* :mod:`egc128.bitslice` batch (bitsliced) engine for the harness
* :mod:`egc128.vectors`  reference vectors and the vector-file format
* :mod:`egc128.boolfun`  Boolean-function analysis and the Rule-A search
* :mod:`egc128.graphs`   interaction-graph variants and spectra
* :mod:`egc128.trails`   truncated trail bounds and layer weights
* :mod:`egc128.lpmodel`  LP-format model emission
* :mod:`egc128.harness`  randomised statistical analyses
* :mod:`egc128.nist`     statistical-suite input bitstream generation
* :mod:`egc128.cli`      command-line interface
"""

from .cipher import (
    EGC128,
    Cipher,
    derive_round_keys,
    f_core,
    lfsr_init,
    lfsr_inverse_step,
    lfsr_step,
    rule_a_eval,
)
from .params import (
    ROUND_CONSTANTS,
    RULE_A_TRUTH_TABLE,
    Block,
    CipherParams,
    MasterKey,
)

__version__ = "1.0.0"

__all__ = [
    "Block",
    "Cipher",
    "CipherParams",
    "EGC128",
    "MasterKey",
    "ROUND_CONSTANTS",
    "RULE_A_TRUTH_TABLE",
    "derive_round_keys",
    "f_core",
    "lfsr_init",
    "lfsr_inverse_step",
    "lfsr_step",
    "rule_a_eval",
    "__version__",
]
