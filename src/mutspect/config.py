"""Run configuration: defaults, flat key=value config files, CLI overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Real

from .clustering import DEFAULT_REDUCTION, ReductionConstraint, check_tau
from .errors import ParameterError
from .util import is_integer

MODES = ("vanilla", "spectral", "raw", "rms", "bss", "rss")
# numpy's Philox and SeedSequence take non-negative integers only
SEED_FIELDS = ("sampling_seed", "generation_seed", "representative_seed", "baseline_seed")


@dataclass
class RunConfig:
    model: str = ""
    dataset: str = ""
    manifest: str = ""
    out: str = "."
    mode: str = "spectral"
    reduction_lo: float = DEFAULT_REDUCTION.lo
    reduction_hi: float = DEFAULT_REDUCTION.hi
    per_class_rate: int | None = None  # fixed x; None enables the search loop
    tau: float | None = None  # fixed linkage threshold
    sampling_seed: int = 0
    generation_seed: int = 0
    representative_seed: int = 0
    baseline_seed: int = 0
    rms_fraction: float = 0.75
    bss_threshold: int = 10
    repeats: int = 5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:  # an unset optional field
                continue
            if f.name in _INT_FIELDS and not is_integer(value):
                raise ParameterError(f"{f.name} must be an integer, got {value!r}")
            if f.name in _FLOAT_FIELDS and (isinstance(value, bool) or not isinstance(value, Real)):
                raise ParameterError(f"{f.name} must be a number, got {value!r}")
        for name in SEED_FIELDS:
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.repeats < 1:
            raise ParameterError("repeats must be at least 1")
        if not 0.0 < self.rms_fraction <= 1.0:
            raise ParameterError("rms fraction must lie in (0, 1]")
        if self.bss_threshold < 1:
            raise ParameterError("bss threshold must be at least 1")
        if self.per_class_rate is not None and self.per_class_rate < 1:
            raise ParameterError("per-class sampling rate must be at least 1")
        if self.mode == "rss" and self.per_class_rate is None:
            raise ParameterError("--x is required for rss (same sample size as spectral)")
        if self.tau is not None:
            check_tau(self.tau)
            if self.per_class_rate is None:
                raise ParameterError("a fixed tau requires a fixed sampling rate")
        self.constraint()  # validates the interval

    def constraint(self) -> ReductionConstraint:
        return ReductionConstraint(self.reduction_lo, self.reduction_hi)


def _fields_typed(name: str) -> set[str]:
    # annotations are strings here; "int | None" counts as int
    return {f.name for f in fields(RunConfig) if f.type.split(" |")[0] == name}


_INT_FIELDS = _fields_typed("int")
_FLOAT_FIELDS = _fields_typed("float")


def parse_config_file(path) -> dict:
    """Flat KEY=VALUE lines; '#' starts a comment; unknown keys rejected."""
    known = {f.name for f in fields(RunConfig)}
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path} is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected KEY=VALUE")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        convert = int if key in _INT_FIELDS else float if key in _FLOAT_FIELDS else str
        try:
            values[key] = convert(value)
        except ValueError:
            raise ParameterError(
                f"{path}:{lineno}: {key}={value!r} is not a valid {convert.__name__}"
            ) from None
    return values


def build_config(file_values: dict | None = None, **overrides) -> RunConfig:
    values = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return RunConfig(**values)


def config_echo(config: RunConfig) -> dict:
    """Config as embedded in reports; the output location is omitted so a
    rerun into a different directory stays byte-identical."""
    echo = {f.name: getattr(config, f.name) for f in fields(RunConfig)}
    echo.pop("out")
    return echo


def format_defaults() -> str:
    """Defaults as a config file; unset optional fields are comment lines."""
    defaults = {f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)}
    return "\n".join(f"# {k}= (unset)" if v is None else f"{k}={v}" for k, v in defaults.items())
