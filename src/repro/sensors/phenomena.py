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

The generation needs only NumPy and is vectorised: all epochs for all nodes
of every sensor type come from a handful of array operations.  One build
shares one squared-distance matrix and one diurnal sine between its types,
and a single loop over epochs runs the AR(1) recursion for every type's
columns at once, which keeps the 20 000-epoch, 4-type, 50-node dataset
generation well under a second.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .types import SensorTypeSpec


def _squared_distances(positions: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between the rows of an ``(n, 2)`` array.

    ``dx*dx + dy*dy`` rounds exactly like summing the squared difference
    vectors, without the ``(n, n, 2)`` intermediate.
    """
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    x, y = positions[:, 0], positions[:, 1]
    sq_dist = x[:, None] - x[None, :]
    sq_dist *= sq_dist
    dy = y[:, None] - y[None, :]
    dy *= dy
    sq_dist += dy
    return sq_dist


def _rbf_covariance(
    sq_dist: np.ndarray, spatial_scale: float, jitter: float = 1e-9
) -> np.ndarray:
    """Squared-exponential covariance from squared distances, in one array."""
    cov = np.negative(sq_dist)
    cov /= 2.0 * spatial_scale**2
    np.exp(cov, cov)
    cov[np.diag_indices_from(cov)] += jitter
    return cov


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
    sq_dist = _squared_distances(np.asarray(positions, dtype=float))
    if spatial_scale <= 0:
        raise ValueError("spatial_scale must be positive")
    return _rbf_covariance(sq_dist, spatial_scale, jitter)


def ar1_coefficient(temporal_scale: float) -> float:
    """AR(1) coefficient giving an autocorrelation time of ``temporal_scale`` epochs."""
    if temporal_scale <= 0:
        raise ValueError("temporal_scale must be positive")
    return float(np.exp(-1.0 / temporal_scale))


def _ar1_filter(x: np.ndarray, rho: np.ndarray) -> None:
    """Filter ``x`` in place down axis 0: ``y[k] = rho * y[k-1] + x[k]``.

    ``rho`` holds one coefficient per column.  Each step is one rounded
    multiply and one rounded add, exactly what
    ``scipy.signal.lfilter([1.0], [1.0, -rho], x, axis=0)`` computes, so
    the two agree bit for bit on nonzero inputs (they could differ only in
    the sign of an exact zero).  A closed form, ``cumsum``, blocking or a
    fused multiply-add would round differently.
    """
    scratch = np.empty_like(x[0])
    prev = x[0]
    for row in x[1:]:
        np.multiply(prev, rho, scratch)
        np.add(row, scratch, row)
        prev = row


def _diurnal_sine(
    positions: np.ndarray, epochs_per_day: int, num_epochs: int
) -> np.ndarray:
    """``sin(2 pi epoch / epochs_per_day + phase)`` for every epoch and node.

    The per-node phase offset sweeps the diurnal peak across the field.
    """
    phase = (
        2.0
        * np.pi
        * (positions[:, 0] + positions[:, 1])
        / (np.ptp(positions) + 1e-9)
        * 0.05
    )
    sine = 2.0 * np.pi * np.arange(num_epochs)[:, None] / epochs_per_day + phase
    return np.sin(sine, sine)


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
        _sq_dist: Optional[np.ndarray] = None,
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
        # ``white @ self._colour`` colours white noise across the nodes.
        if spatial_method == "exact":
            if _sq_dist is None:
                cov = spatial_covariance(self.positions, spec.spatial_scale)
            else:
                cov = _rbf_covariance(_sq_dist, spec.spatial_scale)
            self._colour = np.linalg.cholesky(cov).T
        else:
            if spec.spatial_scale <= 0:
                raise ValueError("spatial_scale must be positive")
            # Random Fourier features for the RBF kernel: spectral density
            # is N(0, 1/scale^2) per axis, and E[2/m sum cos(w.x + b)
            # cos(w.y + b)] = exp(-|x - y|^2 / (2 scale^2)).
            m = int(num_features)
            omega = rng.standard_normal(size=(m, 2)) / spec.spatial_scale
            phase = rng.uniform(0.0, 2.0 * np.pi, size=m)
            self._colour = (
                np.sqrt(2.0 / m) * np.cos(self.positions @ omega.T + phase[None, :])
            ).T

    def generate(self, num_epochs: int) -> np.ndarray:
        """Generate readings for every node over ``num_epochs`` epochs.

        Returns
        -------
        numpy.ndarray
            ``(num_epochs, num_nodes)`` array of field values (including
            measurement noise).
        """
        return _generate([self], 1, self.positions, self.epochs_per_day, num_epochs)[0]

    def _draw(self, innovations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Make this field's random draws, in order.

        Writes the AR(1) innovations into ``innovations`` (``(epochs,
        num_nodes)``) and returns the recursion's starting state and the
        measurement noise (zeros when the spec has none).
        """
        spec, colour = self.spec, self._colour
        # Spatially correlated innovations: white noise per epoch, coloured
        # across nodes by the Cholesky factor of the RBF covariance (exact)
        # or projected through the random Fourier features (lowrank).  The
        # innovation is scaled by sqrt(1 - rho^2) so the stationary variance
        # equals spec.amplitude ** 2.
        white = self.rng.standard_normal(size=(innovations.shape[0], colour.shape[0]))
        np.matmul(white, colour, out=innovations)
        rho = ar1_coefficient(spec.temporal_scale)
        innovations *= spec.amplitude
        innovations *= np.sqrt(1.0 - rho**2)
        # Start the recursion from the stationary distribution rather than 0
        # so early epochs are statistically identical to late ones.
        initial = (
            self.rng.standard_normal(size=colour.shape[0]) @ colour
        ) * spec.amplitude
        if spec.noise_std > 0:
            noise = self.rng.standard_normal(size=innovations.shape)
            noise *= spec.noise_std
        else:
            # The reading still adds +0.0, which turns a -0.0 into +0.0.
            noise = np.zeros(innovations.shape)
        return initial, noise


def _generate(
    fields: Iterable[PhenomenonField],
    count: int,
    positions: np.ndarray,
    epochs_per_day: int,
    num_epochs: int,
) -> List[np.ndarray]:
    """Readings of ``count`` fields over shared positions and days.

    Each field makes all its draws before the next one is taken from
    ``fields``, so a lazily constructed sequence draws in the order of
    generating the fields one after another.  The AR(1) filter draws
    nothing; it runs once, after every draw, over all the fields'
    innovations side by side in one ``(epochs, count * nodes)`` buffer.
    """
    if num_epochs <= 0:
        raise ValueError("num_epochs must be positive")
    t, n = int(num_epochs), positions.shape[0]
    stacked = np.empty((t, count * n))
    blocks = [stacked[:, k * n : (k + 1) * n] for k in range(count)]
    drawn = [(field.spec, *field._draw(block)) for field, block in zip(fields, blocks)]
    rhos = [ar1_coefficient(spec.temporal_scale) for spec, _, _ in drawn]
    _ar1_filter(stacked, np.repeat(rhos, n))

    sine = _diurnal_sine(positions, epochs_per_day, t)
    exponents = np.arange(1, t + 1)[:, None]
    scratch = np.empty((t, n))
    readings = []
    for (spec, initial, noise), rho, stochastic in zip(drawn, rhos, blocks):
        # The stationary start decays by rho per epoch.
        np.multiply(rho**exponents, initial, scratch)
        stochastic += scratch
        np.multiply(sine, spec.diurnal_amplitude, scratch)
        scratch += spec.base_value
        scratch += stochastic
        # base + diurnal + stochastic, then + noise: addition commutes
        # exactly, so the noise buffer can hold the sum.
        noise += scratch
        readings.append(noise)
    return readings


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
    :class:`PhenomenonField`).  Every type's field is constructed right
    before its draws, so the readings equal generating each type's
    :class:`PhenomenonField` in turn; the types share one squared-distance
    matrix (``"exact"``), one diurnal sine and one AR(1) pass.
    """
    if rng_for is None and rng is None:
        raise ValueError("either rng_for or rng must be provided")
    positions = np.asarray(positions, dtype=float)
    sq_dist = _squared_distances(positions) if spatial_method == "exact" else None
    fields = (
        PhenomenonField(
            spec,
            positions,
            rng=rng_for[name] if rng_for is not None else rng,
            epochs_per_day=epochs_per_day,
            spatial_method=spatial_method,
            num_features=num_features,
            _sq_dist=sq_dist,
        )
        for name, spec in specs.items()
    )
    readings = _generate(fields, len(specs), positions, int(epochs_per_day), num_epochs)
    return dict(zip(specs, readings))


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
