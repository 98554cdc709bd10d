"""Engineering drawings: views, annotations, layout, noise, and SVG output.

The drawing pipeline is a chain of pure functions. The geometry layer holds
projected box edges; the annotation layer holds dimension sets (extension
lines + label) and functional symbols: a red circle marks an adjustable
shelf, a red triangle marks a door and its opening direction. Both layers
live in separate named SVG groups so either can be toggled.
"""

from pathlib import Path

from cabinetkit import (
    DimensionSet,
    NoiseSpec,
    SynthSpec,
    annotate,
    builtin_catalog,
    generate,
    inject_noise,
    layout_sheet,
    render_views,
    to_svg,
)

catalog = builtin_catalog()
model = generate(SynthSpec(seed=4), catalog)
out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# 1. Project the model into orthographic views (wireframe, merged edges).
views = render_views(model, ["front", "top", "side"])
for view in views:
    print(f"{view.kind:6} {len(view.segments):3d} segments")

# 2. Add the annotation layer: overall dimensions, every part span of at
#    least 100 mm, and symbols.
annotated = annotate(views, model, catalog)
front = annotated[0]
labels = [a.label for a in front.annotations if isinstance(a, DimensionSet)]
print("\nfront-view dimension labels:", labels)

# 3. Lay the views out on the fixed 512x512 canvas as a table with one
#    shared scale. The canonical set puts top at the top left, front at the
#    bottom left, side at the bottom right; any other set fills a row-major
#    grid. Each column spans its views' horizontal extents and each row
#    their vertical ones, so views in one column or row stay aligned.
sheet = layout_sheet(annotated)
print(f"sheet scale: {sheet.scale:.4f} px/mm")

# 4. Serialize. Layer selection only changes which groups are written; the
#    geometry group bytes are identical either way.
(out_dir / "cabinet_full.svg").write_text(to_svg(sheet))
(out_dir / "cabinet_geometry_only.svg").write_text(
    to_svg(sheet, layers=frozenset({"geometry"}))
)

# 5. Noise injection degrades the geometry layer only, deterministically
#    per seed: segment drops, endpoint jitter, spurious strokes.
noisy = inject_noise(annotated, NoiseSpec(p_drop=0.08, jitter_sigma=2.0, p_spurious=0.04), seed=13)
(out_dir / "cabinet_noisy.svg").write_text(to_svg(layout_sheet(noisy)))

# A single view works too, as do section views cutting at a depth plane.
# The section draws, dimensions and marks only the parts that reach behind
# the model's mid depth: the doors in front of it drop out. Front and
# section share a row, so they line up on z.
single = annotate(render_views(model, ["front"]), model, catalog)
(out_dir / "cabinet_front.svg").write_text(to_svg(layout_sheet(single)))
section = annotate(render_views(model, ["front", "section"]), model, catalog)
(out_dir / "cabinet_section.svg").write_text(to_svg(layout_sheet(section)))

print("\nwrote:", sorted(p.name for p in out_dir.glob("*.svg")))
