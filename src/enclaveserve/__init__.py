"""Secure model-serving stack on a simulated SGX substrate.

Subpackages
-----------
substrate   simulated SGX platform: enclaves, EPC paging, sealing, attestation
channel     certificate-based authenticated encrypted sessions
aecs        attestation-gated PKI generation, storage, and distribution
serving     model-server replicas and the weighted frontend scheduler
control     telemetry, SLO controller, autoscaler, reconciler, profiler
harness     workload generation, scenario runner, latency reports, CLI
"""
