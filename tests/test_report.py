import copy
import dataclasses
import math
import pickle
from fractions import Fraction as F

import pytest

from nclb.airyfun import AiryDomainError, AiryOverflowError
from nclb.algebra import Covector, LieAlgebra, MalformedAlgebraError, Subspace
from nclb.bilinear import (BilinearForm, CoisotropyError, CoisotropyReport,
                           DegenerateFormError, LaplacianData, coisotropy_check,
                           laplacian_data)
from nclb.cli import InputError
from nclb.diffop import (DiffOp, DomainExitError, OpComparison, SampleSpec,
                         UnsupportedOrderError, op_equal)
from nclb.expr import ExprError
from nclb.models import (CasimirReport, CollapsedAction, GroupModel, HaarData,
                         KernelD, ModelParameterError, QuadSpec2D,
                         SingularMeasureError, SmearedGaussian, SmokeSpec,
                         casimir_scalar_check)
from nclb.reduction import (Characteristic, FirstOrderData, Grid, LambdaRep,
                            NotFirstOrderError, RectifyReport, ReducedOperator,
                            ResidualReport, SpectralLabelError, build_reduced,
                            extract_first_order)
from nclb.report import (FAIL, PASS, CheckRecord, InconclusiveError, NclbError,
                         VerificationError, replace, worst)


@pytest.mark.parametrize("cls, base", [
    (MalformedAlgebraError, ValueError), (DegenerateFormError, ValueError),
    (CoisotropyError, ValueError), (ModelParameterError, ValueError),
    (SingularMeasureError, ValueError), (NotFirstOrderError, RuntimeError),
    (UnsupportedOrderError, ValueError), (DomainExitError, RuntimeError),
    (AiryOverflowError, OverflowError), (AiryDomainError, ValueError),
    (ExprError, Exception),
    (InconclusiveError, RuntimeError), (VerificationError, RuntimeError),
    (InputError, ValueError), (SpectralLabelError, ValueError),
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


# --- record semantics ---------------------------------------------------------

def _records(h3):
    """One instance of each record class, built from the Heisenberg model or
    from small literal values."""
    reduced = build_reduced(h3, verify=False)
    return [
        h3.algebra, h3.ideal, Covector((1, 0, F(1, 2))),
        h3.form, coisotropy_check(h3.algebra, h3.form, h3.ideal),
        laplacian_data(h3.algebra, h3.form),
        h3.printed_laplacian, h3.x_sample_spec(n=4), op_equal(h3.xi[0], h3.xi[0]),
        h3.kernel.collapsed, h3.kernel, h3.haar, h3,
        QuadSpec2D(((-1.0, 1.0), (0.5, 2.0)), n=8), casimir_scalar_check(h3),
        SmearedGaussian((0.1, -0.2)), SmokeSpec(8, 8),
        h3.lrep, extract_first_order(reduced, h3.normalizer).first_order, reduced,
        Grid(0.05, 1),
        Characteristic((0.1,), 0.05, Grid(0.05, 1), (0.15 + 0j,), 0.02j, 192, 2e-17),
        ResidualReport(1e-9, 27, 0, True), RectifyReport(0.0, 1e-17, 5, 1),
        CheckRecord("jacobi", PASS, 0.0, 4, 7, 0, {"subchecks": ["a"]}),
    ]


RECORD_CLASSES = [
    LieAlgebra, Subspace, Covector, BilinearForm, CoisotropyReport,
    LaplacianData, DiffOp, SampleSpec, OpComparison, CollapsedAction, KernelD,
    HaarData, GroupModel, QuadSpec2D, CasimirReport, SmearedGaussian, SmokeSpec,
    LambdaRep, FirstOrderData, ReducedOperator, Grid, Characteristic, ResidualReport,
    RectifyReport, CheckRecord,
]


@pytest.fixture(scope="module")
def records(h3):
    return dict(zip(RECORD_CLASSES, _records(h3)))


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_semantics(cls, records):
    """The repr text, == and hash by fields, NotImplemented across classes,
    pickling, and FrozenInstanceError on setting or deleting any attribute
    of a frozen record."""
    obj = records[cls]
    assert type(obj) is cls
    names = list(cls.__annotations__)
    values = tuple(getattr(obj, name) for name in names)

    if "__repr__" not in vars(cls):  # DiffOp prints itself as an operator
        assert repr(obj) == "{}({})".format(cls.__qualname__, ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values)))

    twin = pickle.loads(pickle.dumps(obj))
    assert type(twin) is cls and twin is not obj
    assert twin == obj and not twin != obj
    assert replace(obj) == obj
    for name in names:  # every field takes part in ==
        changed = copy.copy(obj)
        vars(changed)[name] = object()
        assert changed != obj, name
    other = records[RECORD_CLASSES[RECORD_CLASSES.index(cls) - 1]]
    assert obj.__eq__(other) is NotImplemented and obj != other

    frozen = cls is not CheckRecord
    try:
        field_hash = hash(values)
    except TypeError:
        field_hash = None
    if frozen and field_hash is not None:
        assert hash(obj) == field_hash == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(obj)
    if frozen:
        for target in (names[0], "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, target, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, target)
        assert getattr(obj, names[0]) is values[0]


def test_records_share_eq_hash_and_repr_and_compile_only_init():
    for name in ("__eq__", "__hash__", "__repr__"):
        assert getattr(SmokeSpec, name).__code__ is getattr(QuadSpec2D, name).__code__
    assert CheckRecord.__eq__ is SmokeSpec.__eq__
    assert SmokeSpec.__init__.__code__ is not QuadSpec2D.__init__.__code__
    assert SmokeSpec.__init__.__qualname__ == "SmokeSpec.__init__"


def test_the_literal_reprs():
    assert repr(SmokeSpec(8, 8)) == "SmokeSpec(n_outer=8, n_inner=8)"
    assert repr(CheckRecord("lift", PASS)) == (
        "CheckRecord(check='lift', status='pass', max_residual=None, "
        "samples_used=0, seed=None, skipped_samples=0, detail={})")


def test_replace_runs_post_init_again():
    with pytest.raises(ModelParameterError,
                       match=r"^SmokeSpec\(n_outer=0, n_inner=64\): the node"):
        replace(SmokeSpec(), n_outer=0)
    sub = replace(Subspace(((1, 0),)), generators=((0, 2),))
    assert sub.generators == ((F(0), F(2)),)
    assert type(sub.generators[0][1]) is F
    with pytest.raises(TypeError):
        replace(SmokeSpec(), n_nodes=3)


def test_default_factories_give_each_instance_its_own_dict():
    assert DiffOp(("x",)).coefficients is not DiffOp(("x",)).coefficients
    assert LieAlgebra(1, ("e1",)).c is not LieAlgebra(1, ("e1",)).c
    a, b = CheckRecord("a", PASS), CheckRecord("b", PASS)
    assert a.detail == b.detail == {} and a.detail is not b.detail


def test_check_record_is_mutable_and_unhashable():
    rec = CheckRecord("lift", PASS)
    rec.status = FAIL
    rec.detail["why"] = "test"
    assert (rec.status, rec.detail, rec.passed) == (FAIL, {"why": "test"}, False)
    assert CheckRecord.__hash__ is None


def test_a_replaced_model_computes_its_own_cached_values(h3):
    laplacian = h3.laplacian
    model = replace(h3)
    assert model == h3 and model is not h3
    assert "laplacian" not in vars(model) and "validations" not in vars(model)
    assert model.validations is not h3.validations
    assert model.laplacian == laplacian and model.laplacian is not laplacian
    assert h3.laplacian is laplacian
