"""Primitive model catalog: typed parameter schemas keyed by model ID.

A catalog is loaded once from a structured text file (restricted YAML
subset) and is immutable afterwards, so it can be shared freely across
threads. The repo ships a miniature six-primitive catalog used by tests,
the synthesizer, and as the default for the command line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from . import ryaml
from .diagnostics import Diagnostic, error, warning

ParamValue = int | float | str

KIND_INTEGER = "integer"
KIND_LENGTH = "length_mm"
KIND_ENUM = "enumeration"
KIND_TEXT = "text"
PARAM_KINDS = (KIND_INTEGER, KIND_LENGTH, KIND_ENUM, KIND_TEXT)

MAX_PARAMS_PER_PRIMITIVE = 8

PARAM_KEY_RE = re.compile(r"^[A-Z][A-Z0-9]*$")
NK_KEY_RE = re.compile(r"^NK[A-Z]$")


class CatalogError(ValueError):
    """Raised when a catalog file is malformed or inconsistent."""


@dataclass(frozen=True)
class ParamSchema:
    """Schema of one model-specific parameter."""

    key: str
    kind: str
    domain: tuple | None = None
    default: ParamValue | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not PARAM_KEY_RE.match(self.key):
            raise CatalogError(f"parameter key {self.key!r} must match [A-Z][A-Z0-9]*")
        if self.kind not in PARAM_KINDS:
            raise CatalogError(f"unknown parameter kind {self.kind!r}")
        if self.domain is not None:
            object.__setattr__(self, "domain", tuple(self.domain))
            if self.kind in (KIND_INTEGER, KIND_LENGTH):
                if len(self.domain) != 2 or self.domain[0] > self.domain[1]:
                    raise CatalogError(
                        f"{self.key}: numeric domain must be a (lo, hi) range"
                    )
            if self.kind == KIND_ENUM and len(self.domain) == 0:
                raise CatalogError(f"{self.key}: enumeration domain must be non-empty")
        elif self.kind == KIND_ENUM:
            raise CatalogError(f"{self.key}: enumeration requires a domain")
        if self.default is not None:
            problem = self.check(self.default)
            if problem is not None:
                raise CatalogError(f"{self.key}: default {self.default!r} {problem}")

    def check(self, value: ParamValue) -> str | None:
        """Return a problem description for `value`, or None when it fits."""
        if self.kind == KIND_INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                return f"is not an integer (got {type(value).__name__})"
            if self.domain is not None and not self.domain[0] <= value <= self.domain[1]:
                return f"is outside range {self.domain}"
        elif self.kind == KIND_LENGTH:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"is not a length in mm (got {type(value).__name__})"
            if self.domain is not None and not self.domain[0] <= value <= self.domain[1]:
                return f"is outside range {self.domain}"
        elif self.kind == KIND_ENUM:
            assert self.domain is not None
            if value not in self.domain:
                return f"is not one of {self.domain}"
        else:  # text
            if not isinstance(value, str):
                return f"is not text (got {type(value).__name__})"
        return None


@dataclass(frozen=True)
class PrimitiveSchema:
    """One catalog entry: model ID, display name, ordered parameter schemas."""

    model_id: str
    name: str
    param_schemas: tuple[ParamSchema, ...] = ()
    role: str | None = None  # drawing hint: "door" | "adjustable_shelf" | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "param_schemas", tuple(self.param_schemas))
        if not self.model_id:
            raise CatalogError("model_id must be non-empty")
        if len(self.param_schemas) > MAX_PARAMS_PER_PRIMITIVE:
            raise CatalogError(
                f"{self.model_id}: {len(self.param_schemas)} parameters exceeds "
                f"the maximum of {MAX_PARAMS_PER_PRIMITIVE}"
            )
        keys = [p.key for p in self.param_schemas]
        if len(set(keys)) != len(keys):
            raise CatalogError(f"{self.model_id}: duplicate parameter keys")

    def schema_for(self, key: str) -> ParamSchema | None:
        for schema in self.param_schemas:
            if schema.key == key:
                return schema
        return None

    def defaults(self) -> dict[str, ParamValue]:
        """Parameter map of all keys that declare a default, in schema order."""
        return {
            p.key: p.default for p in self.param_schemas if p.default is not None
        }


class PrimitiveCatalog:
    """Immutable registry of primitive schemas; slot order = file order."""

    def __init__(
        self,
        schemas,
        version: str = "1",
        divider_thickness_mm: float = 18.0,
    ):
        self.version = version
        self.divider_thickness_mm = float(divider_thickness_mm)
        self._schemas: dict[str, PrimitiveSchema] = {}
        for schema in schemas:
            if schema.model_id in self._schemas:
                raise CatalogError(f"duplicate model_id {schema.model_id!r}")
            self._schemas[schema.model_id] = schema
        if not self._schemas:
            raise CatalogError("catalog must contain at least one primitive")
        self._slots = tuple(self._schemas)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._schemas

    def __len__(self) -> int:
        return len(self._schemas)

    def __iter__(self):
        return iter(self._schemas.values())

    def get(self, model_id: str) -> PrimitiveSchema | None:
        return self._schemas.get(model_id)

    def require(self, model_id: str) -> PrimitiveSchema:
        schema = self._schemas.get(model_id)
        if schema is None:
            raise KeyError(f"unknown model_id {model_id!r}")
        return schema

    @property
    def model_ids(self) -> tuple[str, ...]:
        return self._slots

    def slot_of(self, model_id: str) -> int:
        try:
            return self._slots.index(model_id)
        except ValueError:
            raise KeyError(f"unknown model_id {model_id!r}") from None

    def model_id_at(self, slot: int) -> str:
        if not 0 <= slot < len(self._slots):
            raise KeyError(f"model slot {slot} out of range")
        return self._slots[slot]


def validate_params(
    schema: PrimitiveSchema, params: dict[str, ParamValue]
) -> list[Diagnostic]:
    """Check a parameter map against a schema; returns diagnostics, never raises.

    Besides per-key type/domain checks, enforces the divided-space rule for
    box-like schemas: the NK* width keys provided must be exactly the first
    N of them, where N is the provided (or default) division count.
    """
    diags: list[Diagnostic] = []
    known = {p.key for p in schema.param_schemas}
    nk_keys = [p.key for p in schema.param_schemas if NK_KEY_RE.match(p.key)]
    has_nk_rule = bool(nk_keys) and schema.schema_for("N") is not None

    for key, value in params.items():
        param = schema.schema_for(key)
        if param is None:
            diags.append(
                warning("unknown-param", f"{schema.model_id}: unknown parameter {key!r}")
            )
            continue
        problem = param.check(value)
        if problem is not None:
            diags.append(
                error("param-value", f"{schema.model_id}: {key}={value!r} {problem}")
            )

    for param in schema.param_schemas:
        if param.key in params or param.default is not None:
            continue
        if has_nk_rule and NK_KEY_RE.match(param.key):
            continue  # governed by the count rule below
        diags.append(
            error(
                "missing-param",
                f"{schema.model_id}: parameter {param.key} has no default and was not provided",
            )
        )

    if has_nk_rule:
        n_schema = schema.schema_for("N")
        assert n_schema is not None
        n_value = params.get("N", n_schema.default)
        if isinstance(n_value, int) and not isinstance(n_value, bool):
            expected = nk_keys[: min(n_value, len(nk_keys))]
            provided = [k for k in nk_keys if k in params and k in known]
            missing = [k for k in expected if k not in provided]
            extra = [k for k in provided if k not in expected]
            if missing:
                diags.append(
                    error(
                        "missing-param",
                        f"{schema.model_id}: N={n_value} requires width keys "
                        f"{', '.join(expected)}; missing {', '.join(missing)}",
                    )
                )
            if extra:
                diags.append(
                    error(
                        "param-count",
                        f"{schema.model_id}: width keys {', '.join(extra)} exceed N={n_value}",
                    )
                )
    return diags


def load_catalog(text: str) -> PrimitiveCatalog:
    """Parse a catalog document; raises CatalogError on any defect."""
    try:
        root = ryaml.parse(text)
    except ryaml.RYamlError as exc:
        raise CatalogError(f"catalog parse error: {exc}") from exc
    if not isinstance(root, ryaml.MapNode):
        raise CatalogError("catalog document must be a mapping")
    entries = root.get("catalog")
    if not isinstance(entries, ryaml.SeqNode):
        raise CatalogError("catalog document requires a 'catalog:' sequence")
    version = "1"
    node = root.get("version")
    if isinstance(node, ryaml.ScalarNode):
        version = str(node.value)
    divider = 18.0
    node = root.get("divider_thickness_mm")
    if isinstance(node, ryaml.ScalarNode) and isinstance(node.value, (int, float)):
        divider = float(node.value)

    schemas = []
    for entry in entries.items:
        if not isinstance(entry, ryaml.MapNode):
            raise CatalogError("each catalog entry must be a mapping")
        schemas.append(_schema_from_node(entry))
    return PrimitiveCatalog(schemas, version=version, divider_thickness_mm=divider)


def _schema_from_node(entry: ryaml.MapNode) -> PrimitiveSchema:
    model_id = _require_str(entry, "id")
    name = _require_str(entry, "name")
    role_node = entry.get("role")
    role = None
    if isinstance(role_node, ryaml.ScalarNode):
        role = str(role_node.value)
    params: list[ParamSchema] = []
    params_node = entry.get("params")
    if params_node is not None:
        if not isinstance(params_node, ryaml.SeqNode):
            raise CatalogError(f"{model_id}: 'params' must be a sequence")
        for item in params_node.items:
            if not isinstance(item, ryaml.MapNode):
                raise CatalogError(f"{model_id}: each param entry must be a mapping")
            params.append(_param_from_node(model_id, item))
    return PrimitiveSchema(model_id=model_id, name=name, param_schemas=tuple(params), role=role)


def _param_from_node(model_id: str, node: ryaml.MapNode) -> ParamSchema:
    key = _require_str(node, "key", context=model_id)
    kind = _require_str(node, "kind", context=model_id)
    domain = None
    domain_node = node.get("domain")
    if domain_node is not None:
        if not isinstance(domain_node, ryaml.SeqNode):
            raise CatalogError(f"{model_id}.{key}: 'domain' must be a sequence")
        domain = tuple(
            item.value for item in domain_node.items if isinstance(item, ryaml.ScalarNode)
        )
        if len(domain) != len(domain_node.items):
            raise CatalogError(f"{model_id}.{key}: domain members must be scalars")
    default = None
    default_node = node.get("default")
    if default_node is not None:
        if not isinstance(default_node, ryaml.ScalarNode):
            raise CatalogError(f"{model_id}.{key}: 'default' must be a scalar")
        default = default_node.value
    description = ""
    desc_node = node.get("description")
    if isinstance(desc_node, ryaml.ScalarNode):
        description = str(desc_node.value)
    return ParamSchema(key=key, kind=kind, domain=domain, default=default, description=description)


def _require_str(node: ryaml.MapNode, key: str, context: str = "") -> str:
    child = node.get(key)
    prefix = f"{context}: " if context else ""
    if not isinstance(child, ryaml.ScalarNode) or not isinstance(child.value, str):
        raise CatalogError(f"{prefix}entry requires a string {key!r} field")
    return child.value


def save_catalog(catalog: PrimitiveCatalog) -> str:
    """Serialize back to the catalog file format (load -> save -> load identity)."""
    lines = [f"version: {ryaml.format_string(catalog.version)}"]
    lines.append(f"divider_thickness_mm: {ryaml.format_box_number(catalog.divider_thickness_mm)}")
    lines.append("catalog:")
    for schema in catalog:
        lines.append(f"- id: {ryaml.format_string(schema.model_id)}")
        lines.append(f"  name: {ryaml.format_string(schema.name)}")
        if schema.role is not None:
            lines.append(f"  role: {ryaml.format_string(schema.role)}")
        if schema.param_schemas:
            lines.append("  params:")
            for param in schema.param_schemas:
                lines.append(f"  - key: {param.key}")
                lines.append(f"    kind: {param.kind}")
                if param.domain is not None:
                    members = ", ".join(ryaml.format_scalar(m) for m in param.domain)
                    lines.append(f"    domain: [{members}]")
                if param.default is not None:
                    lines.append(f"    default: {ryaml.format_scalar(param.default)}")
                if param.description:
                    lines.append(f"    description: {ryaml.format_string(param.description)}")
    return "\n".join(lines) + "\n"


_BUILTIN: PrimitiveCatalog | None = None


def builtin_catalog() -> PrimitiveCatalog:
    """The six-primitive miniature catalog shipped with the package."""
    global _BUILTIN
    if _BUILTIN is None:
        text = resources.files("cabinetkit").joinpath("data/mini_catalog.yaml").read_text("utf-8")
        _BUILTIN = load_catalog(text)
    return _BUILTIN
