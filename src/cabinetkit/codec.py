"""Fixed-slot quantized command sequences for cabinet models.

Each primitive instance becomes one command holding the catalog slot of its
model ID plus quantized common parameters: positions and sizes in 1500 bins
of 3 mm each (spanning 0-4500 mm), and the rotation in 4 bins of 90 degrees.
Model-specific parameters are not representable in this format; decoding
fills them with the schema defaults.

The textual wire format is line-based and diff-friendly::

    <s>
    0 150 100 333 200 133 666 0
    </s>

with one command per line as 8 space-separated integers
(slot px py pz sx sy sz rot) between the two sentinel lines.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .catalog import PrimitiveCatalog
from .program import MAX_INSTANCES, CabinetModel, PrimitiveInstance, make_instance
from .geometry import OrientedBox

logger = logging.getLogger(__name__)

LENGTH_BINS = 1500
LENGTH_RESOLUTION_MM = 3.0
LENGTH_RANGE_MM = LENGTH_BINS * LENGTH_RESOLUTION_MM  # 4500.0
ROTATION_BINS = 4
ROTATION_RESOLUTION_DEG = 360.0 / ROTATION_BINS

START_TOKEN = "<s>"
END_TOKEN = "</s>"

MAX_COMMANDS = MAX_INSTANCES  # one command per primitive
TOKENS_PER_COMMAND = 8


class CodecError(ValueError):
    """Raised for malformed sequences or values the codec cannot represent."""


def quantize_length(value_mm: float) -> int:
    """Map a length to its 3 mm bin index; values outside [0, 4500] clamp."""
    if not math.isfinite(value_mm):
        raise CodecError(f"cannot quantize non-finite length {value_mm!r}")
    index = int(math.floor(value_mm / LENGTH_RESOLUTION_MM))
    return min(max(index, 0), LENGTH_BINS - 1)


def dequantize_length(index: int) -> float:
    """Bin index back to millimeters (bin center)."""
    if not 0 <= index < LENGTH_BINS:
        raise CodecError(f"length bin {index} out of range [0, {LENGTH_BINS})")
    return index * LENGTH_RESOLUTION_MM + LENGTH_RESOLUTION_MM / 2.0


def quantize_rotation(degrees: float) -> int:
    """Nearest 90-degree bin (round half up) of the canonical angle."""
    if not math.isfinite(degrees):
        raise CodecError(f"cannot quantize non-finite rotation {degrees!r}")
    canonical = degrees % 360.0
    return int(math.floor(canonical / ROTATION_RESOLUTION_DEG + 0.5)) % ROTATION_BINS


def dequantize_rotation(index: int) -> float:
    if not 0 <= index < ROTATION_BINS:
        raise CodecError(f"rotation bin {index} out of range [0, {ROTATION_BINS})")
    return index * ROTATION_RESOLUTION_DEG


@dataclass(frozen=True)
class Command:
    """One quantized primitive: catalog slot plus binned pose and size."""

    model_slot: int
    pos_bins: tuple[int, int, int]
    size_bins: tuple[int, int, int]
    rot_bin: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos_bins", tuple(int(b) for b in self.pos_bins))
        object.__setattr__(self, "size_bins", tuple(int(b) for b in self.size_bins))
        if self.model_slot < 0:
            raise CodecError(f"model slot must be non-negative, got {self.model_slot}")
        for bin_index in self.pos_bins + self.size_bins:
            if not 0 <= bin_index < LENGTH_BINS:
                raise CodecError(f"length bin {bin_index} out of range [0, {LENGTH_BINS})")
        if not 0 <= self.rot_bin < ROTATION_BINS:
            raise CodecError(f"rotation bin {self.rot_bin} out of range [0, {ROTATION_BINS})")

    def tokens(self) -> tuple[int, ...]:
        return (self.model_slot, *self.pos_bins, *self.size_bins, self.rot_bin)


@dataclass(frozen=True)
class CommandSequence:
    """Ordered commands between one start and one end sentinel."""

    commands: tuple[Command, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "commands", tuple(self.commands))
        if len(self.commands) > MAX_COMMANDS:
            raise CodecError(
                f"sequence has {len(self.commands)} commands; at most {MAX_COMMANDS} allowed"
            )

    def __len__(self) -> int:
        return len(self.commands)

    @property
    def token_count(self) -> int:
        """Total slots including the two sentinels."""
        return TOKENS_PER_COMMAND * len(self.commands) + 2


def encode(model: CabinetModel, catalog: PrimitiveCatalog) -> CommandSequence:
    """One command per instance, in source order; model-specific params drop."""
    commands = []
    clamped = 0
    for instance in model.instances:
        slot = catalog.slot_of(instance.model_id)  # KeyError on unknown ID
        lengths = instance.box.position + instance.box.size
        clamped += sum(not 0.0 <= c <= LENGTH_RANGE_MM for c in lengths)
        commands.append(
            Command(
                model_slot=slot,
                pos_bins=tuple(quantize_length(c) for c in instance.box.position),
                size_bins=tuple(quantize_length(c) for c in instance.box.size),
                rot_bin=quantize_rotation(instance.box.rotation_deg),
            )
        )
    if clamped:
        logger.warning("%d length(s) outside [0, %.0f] mm clamped", clamped, LENGTH_RANGE_MM)
    return CommandSequence(tuple(commands))


def decode(sequence: CommandSequence, catalog: PrimitiveCatalog) -> CabinetModel:
    """Inverse of encode up to quantization error; params become defaults."""
    if len(sequence) == 0:
        raise CodecError("an empty command sequence does not describe a model")
    instances: list[PrimitiveInstance] = []
    for command in sequence.commands:
        model_id = catalog.model_id_at(command.model_slot)
        schema = catalog.require(model_id)
        box = OrientedBox(
            position=tuple(dequantize_length(b) for b in command.pos_bins),
            size=tuple(dequantize_length(b) for b in command.size_bins),
            rotation_deg=dequantize_rotation(command.rot_bin),
        )
        instances.append(
            make_instance(catalog, model_id, box, schema.defaults())
        )
    return CabinetModel(tuple(instances))


def format_commands(sequence: CommandSequence) -> str:
    """Textual wire format: sentinels plus one command per line."""
    lines = [START_TOKEN]
    for command in sequence.commands:
        lines.append(" ".join(str(t) for t in command.tokens()))
    lines.append(END_TOKEN)
    return "\n".join(lines) + "\n"


def parse_commands(text: str) -> CommandSequence:
    """Parse the wire format; raises CodecError on malformed input."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != START_TOKEN:
        raise CodecError(f"sequence must begin with the {START_TOKEN} sentinel")
    if lines[-1] != END_TOKEN:
        raise CodecError(f"sequence must end with the {END_TOKEN} sentinel")
    body = lines[1:-1]
    if START_TOKEN in body or END_TOKEN in body:
        raise CodecError("sentinels must appear exactly once each")
    commands = []
    for line_no, line in enumerate(body, start=2):
        fields = line.split()
        if len(fields) != TOKENS_PER_COMMAND:
            raise CodecError(
                f"line {line_no}: expected {TOKENS_PER_COMMAND} integers, got {len(fields)}"
            )
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise CodecError(f"line {line_no}: commands must contain integers") from None
        commands.append(
            Command(
                model_slot=values[0],
                pos_bins=tuple(values[1:4]),
                size_bins=tuple(values[4:7]),
                rot_bin=values[7],
            )
        )
    return CommandSequence(tuple(commands))
