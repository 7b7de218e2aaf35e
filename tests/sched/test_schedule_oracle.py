"""The array-native scheduler against the per-block object-walk oracle.

Every translation-file array and every per-CTI schedule must equal the
oracle's (``schedule_oracle.py``) on real synthesized programs: the
seven benchmarks of the benchmark harness's paper suite, one of each
Table 1 category plus the heaviest of each kind, at b = 0-3.
"""

import numpy as np
import pytest

from repro.sched.branch_schedule import schedule_ctis
from repro.sched.translation import TranslationFile
from repro.trace.compiled import CompiledProgram, unfillable_jumps
from repro.workload import benchmark_by_name, synthesize_program

from tests.sched.schedule_oracle import (
    jump_is_unfillable,
    oracle_schedules,
    oracle_translation,
)

PAPER_SUITE = ("sdiff", "awk", "dodged", "integral", "loops", "matrix500", "small")

ARRAYS = (
    "r_values",
    "s_values",
    "skip_words",
    "predicted_taken",
    "indirect",
    "new_lengths",
    "new_addresses",
)


@pytest.fixture(scope="module", params=PAPER_SUITE)
def compiled(request):
    return CompiledProgram(synthesize_program(benchmark_by_name(request.param)))


@pytest.mark.parametrize("slots", [0, 1, 2, 3])
def test_translation_arrays_equal_oracle(compiled, slots):
    translation = TranslationFile(compiled, slots)
    expected = oracle_translation(compiled, slots)
    for name in ARRAYS:
        actual = getattr(translation, name)
        assert actual.dtype == expected[name].dtype, name
        np.testing.assert_array_equal(actual, expected[name], err_msg=name)


@pytest.mark.parametrize("slots", [0, 1, 2, 3])
def test_schedule_view_equals_oracle(compiled, slots):
    assert schedule_ctis(compiled, slots) == oracle_schedules(compiled, slots)


def test_translations_share_the_programs_flags(compiled):
    one, three = TranslationFile(compiled, 1), TranslationFile(compiled, 3)
    assert one.predicted_taken is three.predicted_taken is compiled.predicted_taken
    with pytest.raises(ValueError):
        one.predicted_taken[0] = not one.predicted_taken[0]


def test_vectorized_unfillable_rule_matches_scalar():
    ids = np.arange(200_000)
    expected = [jump_is_unfillable(int(i)) for i in ids]
    np.testing.assert_array_equal(unfillable_jumps(ids), expected)
