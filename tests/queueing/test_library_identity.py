"""The library identities the compiled response-time law relies on.

:class:`repro.queueing.responsetime.ResponseTime` evaluates the
incomplete-gamma tails of every queued state in one array call, where
the scalar survival functions make one call per state.  The two agree
bit for bit only because ``scipy.special.gammaincc`` runs the same
double-precision kernel per element whether it is given scalars or
arrays.  This test fails if a scipy release ever breaks that, before
the golden policy values (``tests/resilience/test_policies_golden.py``)
drift in their last bits.
"""

import numpy as np
from scipy import special

from repro.queueing import MMCKQueue
from repro.queueing.responsetime import ResponseTime

CASES = 20_000


def _cases(seed=20030622):
    rng = np.random.default_rng(seed)
    stages = rng.integers(1, 200, CASES)
    # Rate times t spans idle (1e-4) to deeply saturated (1e3) queues.
    x = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), CASES))
    return stages, x


def test_array_gammaincc_equals_the_scalar_calls():
    stages, x = _cases()
    array = special.gammaincc(stages, x).tolist()
    mismatched = [
        (m, xi)
        for m, xi, value in zip(stages.tolist(), x.tolist(), array)
        if float(special.gammaincc(m, xi)) != value
    ]
    assert not mismatched, mismatched[:5]
    # The broadcast form ResponseTime.survival uses: one stage row
    # against a column of two arguments.
    row = np.arange(1, 30)
    grid = special.gammaincc(row, [[0.37], [2.5]]).tolist()
    assert grid == [
        [float(special.gammaincc(m, xi)) for m in range(1, 30)]
        for xi in (0.37, 2.5)
    ]


def test_powers_stay_python_float_pow():
    # NumPy's ``power`` is *not* bit-identical to Python's ``float **
    # int`` on these ratios (about one case in twenty differs in the
    # last bit with numpy 2.4), which is why ResponseTime precomputes
    # ``ratio**m`` with Python ``**`` rather than one ``np.power``
    # call.  Should this assertion ever fail, NumPy's power matches
    # Python's here and the powers could be vectorized too.
    stages, _ = _cases()
    servers = np.random.default_rng(7).integers(2, 60, CASES)
    ratio = (servers * 100.0) / (servers * 100.0 - 100.0)
    vector = np.power(ratio, stages).tolist()
    differing = sum(
        r**m != v for r, m, v in zip(ratio.tolist(), stages.tolist(), vector)
    )
    assert differing > 0
    law = ResponseTime(MMCKQueue(150.0, 100.0, 4, 20))
    ratio = 400.0 / 300.0
    assert law._powers == [ratio**m for m in range(1, 17)]
