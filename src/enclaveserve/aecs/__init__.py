"""Attestation-gated PKI generation, storage, and distribution."""
