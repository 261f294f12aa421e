"""Model-server replicas and the weighted frontend scheduler."""
