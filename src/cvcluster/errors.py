"""Exception types shared across the package.

The CLI maps these onto exit codes: a bad argument, a non-unitary mode
transform included, is ``InvalidParameterError`` (exit 2), and every other
``SimulationError`` is a physics failure (exit 3): unstable drift
(``NonHurwitzError``), Fock-basis overflow (``CutoffTooSmallError``) or an
unphysical state (``UnphysicalStateError``).
"""


class SimulationError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(SimulationError, ValueError):
    """An argument violates a documented precondition."""


class UnphysicalStateError(SimulationError, ValueError):
    """A covariance matrix violates the uncertainty relation."""


class NonHurwitzError(SimulationError, RuntimeError):
    """A drift matrix has spectrum touching the closed right half-plane.

    Attributes
    ----------
    eigenvalue : complex
        The offending eigenvalue (largest real part).
    """

    def __init__(self, message: str, eigenvalue: complex):
        super().__init__(f"{message} (offending eigenvalue {eigenvalue:.6g})")
        self.eigenvalue = eigenvalue


class CutoffTooSmallError(SimulationError, RuntimeError):
    """Truncated-basis integration leaked population into the top levels.

    Attributes
    ----------
    leakage : float
        Measured population on the highest retained number states.
    """

    def __init__(self, message: str, leakage: float):
        super().__init__(f"{message} (leakage {leakage:.3e})")
        self.leakage = leakage
