package steering

import "hvc/internal/channel"

// withDefaults fills the zero fields NewDChannel reads: the
// conventional eMBB/URLLC names and a cost scale of 1.
func (cfg DChannelConfig) withDefaults() DChannelConfig {
	if cfg.Wide == "" {
		cfg.Wide = channel.NameEMBB
	}
	if cfg.Narrow == "" {
		cfg.Narrow = channel.NameURLLC
	}
	if cfg.Beta == 0 {
		cfg.Beta = 1
	}
	return cfg
}

// fallback is the config of the DChannel heuristic Priority defers to.
// Priority's defaults are all its fallback's: NewDChannel applies them.
func (cfg PriorityConfig) fallback() DChannelConfig {
	return DChannelConfig{Wide: cfg.Wide, Narrow: cfg.Narrow, Beta: cfg.Beta}
}

// withDefaults fills the zero fields NewObjectMap reads: the channel
// names as DChannel defaults them and a 10 kB "interactive object"
// size.
func (cfg ObjectMapConfig) withDefaults() ObjectMapConfig {
	names := DChannelConfig{Wide: cfg.Wide, Narrow: cfg.Narrow}.withDefaults()
	cfg.Wide, cfg.Narrow = names.Wide, names.Narrow
	if cfg.SmallBytes == 0 {
		cfg.SmallBytes = 10 << 10
	}
	return cfg
}
