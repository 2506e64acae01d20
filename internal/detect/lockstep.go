package detect

import (
	"fmt"
	"time"

	"repro/internal/socialnet"
)

// LockstepConfig parameterizes the CopyCatch-style detector [4]: find
// groups of at least MinUsers accounts that each liked at least MinPages
// common pages, with the likes on each common page falling within a
// Window of each other.
type LockstepConfig struct {
	Window   time.Duration
	MinUsers int
	MinPages int
	// MaxBucketUsers caps the per-(page,window) bucket fanout to bound
	// the pair-counting cost on pathological inputs. A capped bucket
	// keeps its smallest MaxBucketUsers member IDs — a pure function of
	// the bucket's user set, so which users survive the cap never
	// depends on arrival order.
	MaxBucketUsers int
}

// DefaultLockstepConfig mirrors the granularity of the paper's burst
// observations: 700+ likes landed within single 2-hour windows.
func DefaultLockstepConfig() LockstepConfig {
	return LockstepConfig{
		Window:         2 * time.Hour,
		MinUsers:       3,
		MinPages:       2,
		MaxBucketUsers: 4096,
	}
}

// Validate checks the config.
func (c *LockstepConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("detect: lockstep window %s must be positive", c.Window)
	}
	if c.MinUsers < 2 {
		return fmt.Errorf("detect: lockstep min users %d must be >=2", c.MinUsers)
	}
	if c.MinPages < 1 {
		return fmt.Errorf("detect: lockstep min pages %d must be >=1", c.MinPages)
	}
	if c.MaxBucketUsers < c.MinUsers {
		return fmt.Errorf("detect: lockstep bucket cap %d below min users %d", c.MaxBucketUsers, c.MinUsers)
	}
	return nil
}

// LockstepGroup is a detected cluster: the users and the (page, window)
// evidence supporting it.
type LockstepGroup struct {
	Users []socialnet.UserID
	Pages []socialnet.PageID
}

// LockstepVerdict is one account's slice of a lockstep group report:
// which group it belongs to and how big the evidence is. The zero
// value means the account is in no group.
type LockstepVerdict struct {
	// Group is the 1-based index of the account's group in the report
	// (groups are ordered by smallest member); 0 means none.
	Group int
	// Size is the group's member count.
	Size int
	// Pages is the group's count of distinct co-action evidence pages.
	Pages int
}

// AttachLockstep stamps each verdict with its account's membership in
// the given group report (batch Lockstep output or the StreamScorer's
// live LockstepGroups — same bytes either way). Non-members get the
// zero LockstepVerdict.
func AttachLockstep(verdicts []Verdict, groups []LockstepGroup) {
	if len(groups) == 0 {
		return
	}
	member := make(map[socialnet.UserID]LockstepVerdict)
	for gi, g := range groups {
		lv := LockstepVerdict{Group: gi + 1, Size: len(g.Users), Pages: len(g.Pages)}
		for _, u := range g.Users {
			member[u] = lv
		}
	}
	for i := range verdicts {
		verdicts[i].Lockstep = member[verdicts[i].Features.User]
	}
}

// Lockstep runs the detector over the given pages' like streams.
//
// It is the batch driver over the same lockstepIndex the StreamScorer
// maintains live: fold each page's likes (already sorted by time) into
// a coactionSketch, install it, and read the report. The streaming
// path folds the identical events into identical sketches
// incrementally, so the two engines' group lists match byte for byte
// at any quiescent point.
func Lockstep(st *socialnet.Store, pages []socialnet.PageID, cfg LockstepConfig) ([]LockstepGroup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := newLockstepIndex(cfg)
	for _, pid := range pages {
		if _, dup := x.sketches[pid]; dup {
			continue
		}
		sk := x.newSketch()
		for _, lk := range st.LikesOfPage(pid) {
			// LikesOfPage is sorted by (time, user): always in order.
			sk.observe(lk.User, lk.At.UnixNano())
			x.liked(lk.User, pid)
		}
		x.install(pid, sk)
	}
	return x.report(), nil
}
