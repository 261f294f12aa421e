"""Simulated SGX platform: enclaves, EPC paging, sealing, attestation."""
