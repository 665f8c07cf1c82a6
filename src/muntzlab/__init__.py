"""Numerical laboratory for Muntz spaces and Remez-type inequalities."""
