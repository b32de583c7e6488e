"""Binary network-coding toolkit: encoders, progressive decoding,
closed-form decoding probabilities, and an erasure-channel simulator."""

__version__ = "0.1.0"
