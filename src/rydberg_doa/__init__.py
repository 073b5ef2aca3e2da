"""Simulation and estimation toolkit for multi-target direction-of-arrival
sensing with a single Rydberg atomic receiver.

The pipeline: an RF interference pattern modulates the vapor's absorption;
under a dominant local oscillator the modulation is a sum of spatial
cosines whose frequencies map one-to-one to target bearings. Virtual
windows over the fluorescence profile turn this into a uniformly sampled
sum of sinusoids, estimated with Prony's method and benchmarked against
the Cramer-Rao lower bound.
"""

__version__ = "0.1.0"
