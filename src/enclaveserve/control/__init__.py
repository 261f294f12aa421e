"""Telemetry, SLO controller, autoscaler, reconciler, profiler."""
