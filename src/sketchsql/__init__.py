"""Sketch-based text-to-SQL slot filling with type-aware preprocessing."""
