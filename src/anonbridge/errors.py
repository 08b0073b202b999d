"""Exception hierarchy shared by every layer of the simulator."""


class SimError(Exception):
    """Base class for all protocol and simulator errors."""


# -- field / hashing ---------------------------------------------------------

class NotInField(SimError):
    pass


# -- merkle ------------------------------------------------------------------

class DepthOutOfRange(SimError):
    pass


class TreeFull(SimError):
    pass


class IndexUnknown(SimError):
    pass


# -- dact types --------------------------------------------------------------

class ChainIdOutOfTier(SimError):
    pass


class VersionOutOfTier(SimError):
    pass


class DuplicateAddress(SimError):
    pass


class CallerInList(SimError):
    pass


class MalformedDeposit(SimError):
    pass


# -- circuit -----------------------------------------------------------------

class ConstraintViolation(SimError):
    """Raised by the prover when a circuit constraint fails.

    Carries the name of the first failed constraint in evaluation order.
    """

    def __init__(self, constraint: str):
        self.constraint = constraint
        super().__init__(constraint)


# -- contracts ---------------------------------------------------------------

class AlreadyRegistered(SimError):
    pass


class UnknownDapp(SimError):
    pass


class DuplicateCommitment(SimError):
    pass


class Unauthorized(SimError):
    pass


class DoubleSpend(SimError):
    pass


class UnknownRoot(SimError):
    pass


class WrongChain(SimError):
    pass


class TpcMismatch(SimError):
    pass


class InvalidProof(SimError):
    pass


class UnknownCommitment(SimError):
    pass


class UnknownDeposit(SimError):
    """The source chain published no such deposit event."""


class AlreadyPending(SimError):
    pass


class NoPending(SimError):
    pass


class NotMarked(SimError):
    """The destination holds no revert mark for the commitment."""


class WindowExpired(SimError):
    pass


class WindowActive(SimError):
    pass


class Halted(SimError):
    """The revert was already halted: a halt is allowed once per revert."""


# -- actors ------------------------------------------------------------------

class InvalidValue(SimError):
    pass


class SignatureMissing(SimError):
    pass


class Censored(SimError):
    """The oracle network refused to route a withdraw to its Router."""


# -- harness -----------------------------------------------------------------

class ConfigInvalid(SimError):
    pass
