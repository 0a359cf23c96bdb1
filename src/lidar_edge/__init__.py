"""LiDAR range-image edge detection toolkit.

Synthetic labeled dataset generation, classical detectors (Sobel,
Roberts, Canny), a from-scratch nested multi-scale CNN with side
outputs and weighted fusion, and a common evaluation harness.
"""
