"""Synthetic environmental phenomena generator.

The paper evaluates DirQ on "a synthetic dataset with 4 sensor types ...
where sensor values of nodes located close to one another are spatially
related.  The generated sensor data is also related in the temporal
dimension" (§7).  This module reproduces that dataset generator:

* **Spatial correlation** comes from a squared-exponential (RBF) kernel over
  node positions: the field value at two nodes a distance ``r`` apart has
  correlation ``exp(-r^2 / (2 * spatial_scale^2))``.
* **Temporal correlation** comes from an AR(1) (Ornstein–Uhlenbeck style)
  recursion whose coefficient is chosen so that the autocorrelation time is
  ``temporal_scale`` epochs.
* A deterministic **diurnal cycle** (shared by all nodes, with a small
  per-node phase offset derived from position) can be superimposed, matching
  how real environmental parameters behave and exercising DirQ's adaptation
  to the *rate of change* of the measured parameter.

The generation is fully vectorised: all epochs for all nodes are produced in
a handful of NumPy/SciPy array operations, which keeps the 20 000-epoch,
4-type, 50-node dataset generation well under a second.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy.signal import lfilter

from .types import SensorTypeSpec


def spatial_covariance(
    positions: np.ndarray, spatial_scale: float, jitter: float = 1e-9
) -> np.ndarray:
    """Squared-exponential covariance matrix over node positions.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.
    spatial_scale:
        Correlation length; larger values couple distant nodes more tightly.
    jitter:
        Small diagonal term added for numerical stability of the Cholesky
        factorisation.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    if spatial_scale <= 0:
        raise ValueError("spatial_scale must be positive")
    diffs = positions[:, None, :] - positions[None, :, :]
    sq_dist = (diffs**2).sum(axis=-1)
    cov = np.exp(-sq_dist / (2.0 * spatial_scale**2))
    cov[np.diag_indices_from(cov)] += jitter
    return cov


def ar1_coefficient(temporal_scale: float) -> float:
    """AR(1) coefficient giving an autocorrelation time of ``temporal_scale`` epochs."""
    if temporal_scale <= 0:
        raise ValueError("temporal_scale must be positive")
    return float(np.exp(-1.0 / temporal_scale))


class PhenomenonField:
    """Generator of one spatio-temporally correlated scalar field.

    Parameters
    ----------
    spec:
        Physical characteristics of the sensor type being simulated.
    positions:
        ``(n, 2)`` node coordinates; column order defines the node order of
        the generated arrays.
    rng:
        NumPy random generator (pass a named stream from
        :class:`~repro.simulation.rng.RandomStreams` for reproducibility).
    epochs_per_day:
        Number of epochs in one simulated day, used for the diurnal cycle.
        The paper's runs are 20 000 epochs; with the default of 2 000 epochs
        per day that is ten simulated days.
    spatial_method:
        ``"exact"`` (default) colours the field through the dense Cholesky
        factor of the RBF covariance -- O(n^2) memory and O(n^3) setup,
        fine up to a few hundred nodes and **unchanged draw-for-draw** from
        the original implementation.  ``"lowrank"`` approximates the same
        kernel with ``num_features`` random Fourier features (Rahimi &
        Recht): O(n m) everywhere, which is what makes 5 000-node datasets
        tractable (the exact path needs ~30 s and hundreds of MB per sensor
        type at that size).  The low-rank field is a statistical
        approximation, not a bit-identical replacement, so it is only ever
        selected explicitly (``ExperimentConfig.phenomena_method``).
    num_features:
        Number of random Fourier features for ``"lowrank"``; kernel error
        shrinks as ``1/sqrt(m)``.
    """

    SPATIAL_METHODS = ("exact", "lowrank")

    def __init__(
        self,
        spec: SensorTypeSpec,
        positions: np.ndarray,
        rng: np.random.Generator,
        epochs_per_day: int = 2000,
        spatial_method: str = "exact",
        num_features: int = 256,
    ):
        if epochs_per_day <= 0:
            raise ValueError("epochs_per_day must be positive")
        if spatial_method not in self.SPATIAL_METHODS:
            raise ValueError(
                f"spatial_method must be one of {self.SPATIAL_METHODS}, "
                f"got {spatial_method!r}"
            )
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.spec = spec
        self.positions = np.asarray(positions, dtype=float)
        self.rng = rng
        self.epochs_per_day = int(epochs_per_day)
        self.num_nodes = self.positions.shape[0]
        self.spatial_method = spatial_method
        if spatial_method == "exact":
            cov = spatial_covariance(self.positions, spec.spatial_scale)
            self._chol = np.linalg.cholesky(cov)
            self._features = None
        else:
            if spec.spatial_scale <= 0:
                raise ValueError("spatial_scale must be positive")
            # Random Fourier features for the RBF kernel: spectral density
            # is N(0, 1/scale^2) per axis, and E[2/m sum cos(w.x + b)
            # cos(w.y + b)] = exp(-|x - y|^2 / (2 scale^2)).
            m = int(num_features)
            omega = rng.standard_normal(size=(m, 2)) / spec.spatial_scale
            phase = rng.uniform(0.0, 2.0 * np.pi, size=m)
            self._features = np.sqrt(2.0 / m) * np.cos(
                self.positions @ omega.T + phase[None, :]
            )
            self._chol = None
        # Per-node phase offset so the diurnal peak sweeps across the field.
        self._phase = (
            2.0
            * np.pi
            * (self.positions[:, 0] + self.positions[:, 1])
            / (np.ptp(self.positions) + 1e-9)
            * 0.05
        )

    def generate(self, num_epochs: int) -> np.ndarray:
        """Generate readings for every node over ``num_epochs`` epochs.

        Returns
        -------
        numpy.ndarray
            ``(num_epochs, num_nodes)`` array of field values (including
            measurement noise).
        """
        if num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        spec = self.spec
        n, t = self.num_nodes, int(num_epochs)

        # Spatially correlated innovations: white noise per epoch, coloured
        # across nodes by the Cholesky factor of the RBF covariance (exact)
        # or projected through the random Fourier features (lowrank).
        if self.spatial_method == "exact":
            white = self.rng.standard_normal(size=(t, n))
            spatial = white @ self._chol.T
        else:
            m = self._features.shape[1]
            white = self.rng.standard_normal(size=(t, m))
            spatial = white @ self._features.T

        # Temporal AR(1) filtering along the epoch axis.  The innovation is
        # scaled by sqrt(1 - rho^2) so the stationary variance equals
        # spec.amplitude ** 2.
        rho = ar1_coefficient(spec.temporal_scale)
        innovations = spatial * spec.amplitude * np.sqrt(1.0 - rho**2)
        stochastic = lfilter([1.0], [1.0, -rho], innovations, axis=0)
        # Start the recursion from the stationary distribution rather than 0
        # so early epochs are statistically identical to late ones.
        if self.spatial_method == "exact":
            initial = (
                self.rng.standard_normal(size=n) @ self._chol.T
            ) * spec.amplitude
        else:
            initial = (
                self.rng.standard_normal(size=self._features.shape[1])
                @ self._features.T
            ) * spec.amplitude
        decay = rho ** np.arange(1, t + 1)[:, None]
        stochastic = stochastic + decay * initial[None, :]

        # Deterministic diurnal cycle, phase-shifted per node.
        epochs = np.arange(t)[:, None]
        diurnal = spec.diurnal_amplitude * np.sin(
            2.0 * np.pi * epochs / self.epochs_per_day + self._phase[None, :]
        )

        noise = (
            self.rng.standard_normal(size=(t, n)) * spec.noise_std
            if spec.noise_std > 0
            else 0.0
        )
        return spec.base_value + diurnal + stochastic + noise


def generate_fields(
    specs: Dict[str, SensorTypeSpec],
    positions: np.ndarray,
    num_epochs: int,
    rng_for: Optional[Dict[str, np.random.Generator]] = None,
    rng: Optional[np.random.Generator] = None,
    epochs_per_day: int = 2000,
    spatial_method: str = "exact",
    num_features: int = 256,
) -> Dict[str, np.ndarray]:
    """Generate one field per sensor type.

    Either ``rng_for`` (a mapping type -> generator) or a single ``rng``
    shared by all types must be provided.  ``spatial_method`` /
    ``num_features`` select the spatial-colouring strategy (see
    :class:`PhenomenonField`).
    """
    if rng_for is None and rng is None:
        raise ValueError("either rng_for or rng must be provided")
    out: Dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        gen = rng_for[name] if rng_for is not None else rng
        field = PhenomenonField(
            spec,
            positions,
            rng=gen,
            epochs_per_day=epochs_per_day,
            spatial_method=spatial_method,
            num_features=num_features,
        )
        out[name] = field.generate(num_epochs)
    return out


def empirical_spatial_correlation(
    readings: np.ndarray, positions: np.ndarray, near_threshold: float
) -> tuple[float, float]:
    """Mean pairwise correlation for near vs far node pairs.

    A diagnostic used by the tests to confirm the generated dataset has the
    property the paper relies on ("sensor values of nodes located close to
    one another are spatially related"): nearby nodes should be more
    correlated than distant ones.

    Returns
    -------
    (near_corr, far_corr):
        Mean Pearson correlation over node pairs closer than
        ``near_threshold`` and at least ``near_threshold`` apart,
        respectively.  ``nan`` is returned for an empty group.
    """
    readings = np.asarray(readings, dtype=float)
    positions = np.asarray(positions, dtype=float)
    corr = np.corrcoef(readings.T)
    diffs = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=-1))
    n = corr.shape[0]
    iu = np.triu_indices(n, k=1)
    near_mask = dist[iu] < near_threshold
    near = corr[iu][near_mask]
    far = corr[iu][~near_mask]
    near_corr = float(np.mean(near)) if near.size else float("nan")
    far_corr = float(np.mean(far)) if far.size else float("nan")
    return near_corr, far_corr
