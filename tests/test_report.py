import math

import pytest

from nclb.airyfun import AiryDomainError, AiryOverflowError
from nclb.algebra import MalformedAlgebraError
from nclb.bilinear import CoisotropyError, DegenerateFormError
from nclb.cli import InputError
from nclb.diffop import DomainExitError, UnsupportedOrderError
from nclb.expr import ExprError
from nclb.models import ModelParameterError, SingularMeasureError
from nclb.reduction import NotFirstOrderError
from nclb.report import InconclusiveError, NclbError, VerificationError, worst


@pytest.mark.parametrize("cls, base", [
    (MalformedAlgebraError, ValueError), (DegenerateFormError, ValueError),
    (CoisotropyError, ValueError), (ModelParameterError, ValueError),
    (SingularMeasureError, ValueError), (NotFirstOrderError, RuntimeError),
    (UnsupportedOrderError, ValueError), (DomainExitError, RuntimeError),
    (AiryOverflowError, OverflowError), (AiryDomainError, ValueError),
    (ExprError, Exception),
    (InconclusiveError, RuntimeError), (VerificationError, RuntimeError),
    (InputError, ValueError),
])
def test_every_library_error_is_an_nclb_error_and_keeps_its_base(cls, base):
    assert issubclass(cls, NclbError)
    assert issubclass(cls, base)


class TestWorst:
    def test_finite_values_fold_to_their_max(self):
        assert worst([0.25, 3.0, 1.0]) == 3.0
        assert worst([]) == 0.0
        assert worst([1e-15], floor=1e-12) == 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_at_any_position_gives_nan(self, bad, position):
        values = [0.5, 2.0, 1.0]
        values.insert(position, bad)
        assert math.isnan(worst(values))
        assert math.isnan(worst(iter(values), floor=1e-12))
