"""Certificate-based authenticated encrypted sessions."""
