package steering

import (
	"fmt"

	"hvc/internal/channel"
)

// Canonical config strings: each config struct renders itself, after
// applying the same defaulting as its constructor, as a one-line
// canonical description. The sweep engine folds these into its
// result-cache keys so cached cells invalidate when a policy's
// parameters change; bump the "/vN" tag for behavior changes the
// fields don't capture. Two configs that construct behaviorally
// identical policies render identically.

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
// Priority's defaults are all its fallback's: NewDChannel and
// DChannelConfig.Canonical apply them.
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

// Canonical returns the canonical description of the DChannel policy
// this config builds.
func (cfg DChannelConfig) Canonical() string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("dchannel/v1 wide=%s narrow=%s beta=%g", cfg.Wide, cfg.Narrow, cfg.Beta)
}

// Canonical returns the canonical description of the Priority policy
// this config builds; it embeds the fallback heuristic's canonical
// form because Priority defers to it.
func (cfg PriorityConfig) Canonical() string {
	return fmt.Sprintf("priority/v1 admit=%d heuristic=%t fallback=(%s)",
		cfg.AdmitPrio, cfg.Heuristic, cfg.fallback().Canonical())
}

// Canonical returns the canonical description of the ObjectMap policy
// this config builds.
func (cfg ObjectMapConfig) Canonical() string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("objectmap/v1 wide=%s narrow=%s small=%d", cfg.Wide, cfg.Narrow, cfg.SmallBytes)
}
