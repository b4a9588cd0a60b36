"""The autodiff module exports only what the model uses.

A primitive that no other ``synsum`` module calls is a test-only oracle and
belongs in ``tests/oracles.py``, not in the package's public surface.
"""

import re
from pathlib import Path

import synsum
from synsum import autodiff

# the engine itself: tensors, tapes, their errors and gradient checking
ENGINE = {
    "Tensor",
    "Tape",
    "ShapeError",
    "DegenerateDistributionError",
    "DeterminismError",
    "GradCheckReport",
    "zero_grads",
    "grad_check",
}


def test_every_autodiff_primitive_has_a_caller_in_the_package():
    package = Path(synsum.__file__).parent
    called = set()
    for path in package.glob("*.py"):
        if path.name != "autodiff.py":
            called.update(re.findall(r"\bad\.(\w+)", path.read_text()))
    unused = [name for name in autodiff.__all__
              if name not in ENGINE and name not in called]
    assert unused == []
