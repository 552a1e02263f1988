"""Sharpness-aware cross-domain recommendation for cold-start users."""
