import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabinetkit.catalog import (
    CatalogError,
    ParamSchema,
    PrimitiveCatalog,
    PrimitiveSchema,
    builtin_catalog,
    load_catalog,
    save_catalog,
    validate_params,
)
from helpers import awkward_text


def test_builtin_catalog_has_expected_primitives(catalog):
    assert len(catalog) >= 6
    assert {"M-BB01", "M-DOOR", "M-DRAW", "M-SHFX", "M-SHAD", "M-SIDE"} <= set(
        catalog.model_ids
    )


def test_base_box_schema(catalog):
    base = catalog.require("M-BB01")
    dbxx = base.schema_for("DBXX")
    assert dbxx is not None
    assert dbxx.kind == "enumeration"
    assert dbxx.domain == (1, 2, 3)
    n = base.schema_for("N")
    assert n.default == 1
    assert n.domain[0] >= 1
    assert len(base.param_schemas) <= 8


def test_zero_param_primitives(catalog):
    for model_id in ("M-DOOR", "M-SHFX", "M-SHAD", "M-SIDE"):
        assert catalog.require(model_id).param_schemas == ()


def test_roles_for_drawing_symbols(catalog):
    assert catalog.require("M-SHAD").role == "adjustable_shelf"
    assert catalog.require("M-DOOR").role == "door"


def test_defaults_validate_clean(catalog):
    for schema in catalog:
        assert validate_params(schema, schema.defaults()) == []


def test_load_save_load_identity(catalog):
    text = save_catalog(catalog)
    reloaded = load_catalog(text)
    assert save_catalog(reloaded) == text
    assert reloaded.model_ids == catalog.model_ids
    for schema in catalog:
        assert reloaded.require(schema.model_id) == schema
    assert builtin_catalog() is builtin_catalog()


def test_separators_and_newlines_round_trip():
    finish = ParamSchema(
        key="FIN",
        kind="enumeration",
        domain=("oak, light", "[walnut]", "a]b", 'say "hi"', "it's", "tail\n"),
        default="oak, light",
        description="finish, see [1] # not a comment",
    )
    schema = PrimitiveSchema(model_id="M-X\n", name="oak\n", param_schemas=(finish,))
    catalog = PrimitiveCatalog([schema], version="2, beta\n")
    text = save_catalog(catalog)
    reloaded = load_catalog(text)
    assert save_catalog(reloaded) == text
    assert reloaded.version == catalog.version
    assert list(reloaded) == [schema]


_TEXT = awkward_text()
_MEMBERS = st.lists(
    _TEXT | st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


@st.composite
def _catalogs(draw) -> PrimitiveCatalog:
    schemas = []
    for model_id in draw(st.lists(_TEXT.filter(bool), min_size=1, max_size=3, unique=True)):
        params = []
        for key in draw(st.lists(st.sampled_from(["E", "DBXX", "K2"]), max_size=3, unique=True)):
            members = tuple(draw(_MEMBERS))
            params.append(
                ParamSchema(
                    key=key,
                    kind="enumeration",
                    domain=members,
                    default=draw(st.none() | st.sampled_from(members)),
                    description=draw(_TEXT),
                )
            )
        schemas.append(
            PrimitiveSchema(
                model_id=model_id,
                name=draw(_TEXT),
                param_schemas=tuple(params),
                role=draw(st.none() | _TEXT),
            )
        )
    divider = draw(st.floats(0.0, 1e6, allow_nan=False))
    return PrimitiveCatalog(schemas, version=draw(_TEXT), divider_thickness_mm=divider)


@given(catalog=_catalogs())
@settings(max_examples=200, deadline=None)
def test_save_load_round_trip_of_arbitrary_text(catalog):
    text = save_catalog(catalog)
    reloaded = load_catalog(text)
    assert save_catalog(reloaded) == text
    assert reloaded.version == catalog.version
    assert reloaded.divider_thickness_mm == catalog.divider_thickness_mm
    assert list(reloaded) == list(catalog)


def test_duplicate_model_id_rejected():
    text = """\
catalog:
- id: M-BB01
  name: one
- id: M-BB01
  name: two
"""
    with pytest.raises(CatalogError, match="duplicate model_id"):
        load_catalog(text)


def test_nine_params_rejected():
    params = tuple(
        ParamSchema(key=f"P{i}", kind="integer", domain=(0, 9), default=0)
        for i in range(9)
    )
    with pytest.raises(CatalogError, match="exceeds"):
        PrimitiveSchema(model_id="M-X", name="x", param_schemas=params)


def test_default_out_of_domain_rejected():
    with pytest.raises(CatalogError):
        ParamSchema(key="DBXX", kind="enumeration", domain=(1, 2, 3), default=9)


def test_empty_catalog_rejected():
    with pytest.raises(CatalogError):
        PrimitiveCatalog([])


def test_slot_mapping_is_stable(catalog):
    for slot, model_id in enumerate(catalog.model_ids):
        assert catalog.slot_of(model_id) == slot
        assert catalog.model_id_at(slot) == model_id
    with pytest.raises(KeyError):
        catalog.slot_of("M-NOPE")
    with pytest.raises(KeyError):
        catalog.model_id_at(len(catalog))


class TestValidateParams:
    def test_consistent_base_box(self, catalog):
        base = catalog.require("M-BB01")
        assert validate_params(base, {"N": 2, "NKA": 300, "NKB": 300, "DBXX": 2}) == []

    def test_missing_width_key(self, catalog):
        base = catalog.require("M-BB01")
        diags = validate_params(base, {"N": 2, "NKA": 300})
        assert any("NKB" in d.message for d in diags)

    def test_extra_width_key(self, catalog):
        base = catalog.require("M-BB01")
        diags = validate_params(base, {"N": 1, "NKA": 300, "NKB": 300})
        assert any(d.code == "param-count" for d in diags)

    def test_type_mismatch(self, catalog):
        base = catalog.require("M-BB01")
        diags = validate_params(base, {"DBXX": "upper"})
        assert any(d.code == "param-value" for d in diags)

    def test_domain_violation(self, catalog):
        base = catalog.require("M-BB01")
        diags = validate_params(base, {"N": 1, "NKA": 300, "DBXX": 5})
        assert any(d.code == "param-value" and "DBXX" in d.message for d in diags)

    def test_unknown_key_is_warning(self, catalog):
        door = catalog.require("M-DOOR")
        diags = validate_params(door, {"ZZZ": 1})
        assert [d.severity for d in diags] == ["warning"]

    def test_integer_rejects_float(self, catalog):
        base = catalog.require("M-BB01")
        diags = validate_params(base, {"N": 1.5, "NKA": 300})
        assert any(d.code == "param-value" and "N=" in d.message for d in diags)


def test_param_key_pattern_enforced():
    with pytest.raises(CatalogError):
        ParamSchema(key="lower", kind="integer")
    with pytest.raises(CatalogError):
        ParamSchema(key="1X", kind="integer")
