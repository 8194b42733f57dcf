"""CLAP configuration (the hyper-parameters of Table 6).

The defaults follow the paper exactly where that is practical on a laptop-scale
corpus (model sizes, stack length, scoring window) and expose the training
budget (epochs, corpus size) as knobs because the paper's 1,000-epoch /
448k-packet training run is a cluster-scale job.  Every experiment records the
configuration it used, so EXPERIMENTS.md can state the deviation explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.features.schema import HIDDEN_SIZE, NUM_RAW_FEATURES
from repro.tcpstate.states import NUM_LABEL_CLASSES


@dataclass
class RnnConfig:
    """Stage (a): the GRU state-prediction model."""

    input_size: int = NUM_RAW_FEATURES  # 32 (Table 6)
    hidden_size: int = HIDDEN_SIZE  # 32, also the gate size (Table 6)
    num_classes: int = NUM_LABEL_CLASSES  # 22 states
    num_layers: int = 1
    epochs: int = 30  # Table 6
    batch_size: int = 32
    learning_rate: float = 0.005
    gradient_clip: float = 5.0
    seed: int = 7
    #: Serving compute mode of the GRU: ``gru`` (float64) or ``gru-f32``
    #: (float32).  The GRU always trains in float64 and switches to this mode
    #: before the autoencoder and threshold calibrate; :meth:`Clap.with_backend`
    #: records it here so that :meth:`Clap.load` restores it.
    backend: str = "gru"


@dataclass
class AutoencoderConfig:
    """Stage (c): the context-profile autoencoder."""

    depth: int = 7  # number of layers (Table 6)
    bottleneck_size: int = 40  # Table 6
    epochs: int = 120  # paper uses 1,000; reduced for laptop-scale corpora
    batch_size: int = 64
    learning_rate: float = 0.001
    hidden_activation: str = "tanh"
    seed: int = 11


@dataclass
class DetectorConfig:
    """Stage (d): scoring and localisation."""

    stack_length: int = 3  # context profiles per stacked profile (Table 6)
    score_window: int = 5  # "localize-and-estimate" averaging window
    include_gate_weights: bool = True
    include_amplification: bool = True


@dataclass
class ClapConfig:
    """Full CLAP configuration."""

    rnn: RnnConfig = field(default_factory=RnnConfig)
    autoencoder: AutoencoderConfig = field(default_factory=AutoencoderConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    @classmethod
    def paper(cls) -> "ClapConfig":
        """The configuration as printed in Table 6 (1,000 autoencoder epochs)."""
        config = cls()
        config.autoencoder.epochs = 1000
        return config

    @classmethod
    def fast(cls) -> "ClapConfig":
        """A reduced configuration for unit tests and CI."""
        config = cls()
        config.rnn.epochs = 6
        config.autoencoder.epochs = 25
        return config

    def describe(self) -> dict:
        """Flat description used by the Table-6 benchmark dump."""
        return {
            "rnn.layers": self.rnn.num_layers,
            "rnn.input_size": self.rnn.input_size,
            "rnn.hidden_size": self.rnn.hidden_size,
            "rnn.num_classes": self.rnn.num_classes,
            "rnn.epochs": self.rnn.epochs,
            "rnn.backend": self.rnn.backend,
            "autoencoder.layers": self.autoencoder.depth,
            "autoencoder.bottleneck": self.autoencoder.bottleneck_size,
            "autoencoder.epochs": self.autoencoder.epochs,
            "detector.stack_length": self.detector.stack_length,
            "detector.score_window": self.detector.score_window,
        }
