"""cabinetkit: parametric cabinet shape programs and their tooling.

The package covers the non-neural side of drawing-to-program pipelines:
a two-syntax shape-program language with exact round-trips, an oriented-box
geometry kernel with exact 3D IoU, assignment-based evaluation metrics,
a quantized command-sequence codec, an orthographic drawing synthesizer
with separate geometry/annotation layers, and a seeded cabinet generator.
"""

from .catalog import (
    ParamSchema,
    ParamValue,
    PrimitiveCatalog,
    PrimitiveSchema,
    builtin_catalog,
    load_catalog,
    save_catalog,
    validate_params,
)
from .codec import (
    Command,
    CommandSequence,
    decode,
    dequantize_length,
    dequantize_rotation,
    encode,
    format_commands,
    parse_commands,
    quantize_length,
    quantize_rotation,
)
from .diagnostics import Diagnostic, SourceSpan
from .drawing import (
    DimensionSet,
    NoiseSpec,
    Sheet,
    SymbolMark,
    ViewDrawing,
    annotate,
    inject_noise,
    layout_sheet,
    render_views,
    to_svg,
)
from .geometry import (
    OrientedBox,
    iou3d,
    merge_segments,
    model_aabb,
)
from .metrics import (
    CorpusReport,
    Matching,
    SampleReport,
    evaluate_corpus,
    evaluate_sample,
    match,
    param_match,
)
from .program import (
    CabinetModel,
    ParseResult,
    PrimitiveInstance,
    emit_python,
    emit_yaml,
    make_instance,
    parse_python,
    parse_yaml,
    validate,
)
from .synth import CorpusStats, PerturbSpec, SynthSpec, generate, perturb, stats

__version__ = "0.1.0"

__all__ = [
    "CabinetModel",
    "Command",
    "CommandSequence",
    "CorpusReport",
    "CorpusStats",
    "Diagnostic",
    "DimensionSet",
    "Matching",
    "NoiseSpec",
    "OrientedBox",
    "ParamSchema",
    "ParamValue",
    "ParseResult",
    "PerturbSpec",
    "PrimitiveCatalog",
    "PrimitiveInstance",
    "PrimitiveSchema",
    "SampleReport",
    "Sheet",
    "SourceSpan",
    "SymbolMark",
    "SynthSpec",
    "ViewDrawing",
    "annotate",
    "builtin_catalog",
    "decode",
    "dequantize_length",
    "dequantize_rotation",
    "emit_python",
    "emit_yaml",
    "encode",
    "evaluate_corpus",
    "evaluate_sample",
    "format_commands",
    "generate",
    "inject_noise",
    "iou3d",
    "layout_sheet",
    "load_catalog",
    "make_instance",
    "match",
    "merge_segments",
    "model_aabb",
    "param_match",
    "parse_commands",
    "parse_python",
    "parse_yaml",
    "perturb",
    "quantize_length",
    "quantize_rotation",
    "render_views",
    "save_catalog",
    "stats",
    "to_svg",
    "validate",
    "validate_params",
]
