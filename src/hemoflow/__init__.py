"""1D finite-volume and nonlinear lumped-parameter (0D) blood flow models
on arterial tree networks, with waveform comparison and stability analysis
tooling. All quantities are CGS (cm, g, s, dyne)."""

from .vessel import (
    FluidProps,
    LumpedConstants,
    VesselSpec,
    WallModel,
    coriolis_alpha,
    lumped_constants,
    lumped_nonlinear,
    tube_law_area,
    tube_law_pressure,
    wave_speed,
)
from .netio import (
    Network,
    SingleResistance,
    WaveformSeries,
    Windkessel,
    aortic_bifurcation,
    load_network,
    parse_network,
    synthetic_inflow,
)

__all__ = [
    "FluidProps",
    "LumpedConstants",
    "Network",
    "SingleResistance",
    "VesselSpec",
    "WallModel",
    "WaveformSeries",
    "Windkessel",
    "aortic_bifurcation",
    "coriolis_alpha",
    "load_network",
    "lumped_constants",
    "lumped_nonlinear",
    "parse_network",
    "synthetic_inflow",
    "tube_law_area",
    "tube_law_pressure",
    "wave_speed",
]
