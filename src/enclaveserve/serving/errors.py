from __future__ import annotations


class ServingError(Exception):
    """Base error for the model-serving plane."""


class EnclaveLaunchFailed(ServingError):
    pass


class ProvisioningFailed(ServingError):
    """PKI acquisition from the keystore failed; cause attached."""


class NoEligibleEndpoint(ServingError):
    """Every endpoint carries weight 0."""


class UnknownEndpoint(ServingError):
    pass
