package fl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Roster tracks which clients are live across rounds. A departed client
// stops being scheduled; one that comes back is parked as pending and only
// re-admitted at the next round boundary — never mid-round, so a rejoiner
// can observe the in-flight round but not perturb it.
type Roster struct {
	order   []string
	active  map[string]bool
	pending map[string]bool

	// live is Active's answer, cached until membership changes. A change
	// drops it and the next Active builds a new slice: one that was handed
	// out (a Schedule's Roster, a journaled Members) is never written again.
	live   []string
	cached bool
}

// NewRoster builds a roster with every named client active.
func NewRoster(names []string) *Roster {
	r := &Roster{
		order:   append([]string(nil), names...),
		active:  make(map[string]bool, len(names)),
		pending: make(map[string]bool),
	}
	for _, n := range names {
		r.active[n] = true
	}
	return r
}

// known reports whether name is a roster member at all.
func (r *Roster) known(name string) bool { return slices.Contains(r.order, name) }

// Leave marks a client departed, effective immediately for future rounds.
func (r *Roster) Leave(name string) error {
	if !r.known(name) {
		return fmt.Errorf("fl: unknown client %q", name)
	}
	if !r.active[name] {
		return fmt.Errorf("fl: client %q already departed", name)
	}
	delete(r.active, name)
	r.cached = false
	return nil
}

// Rejoin parks a departed client for admission at the next round boundary.
func (r *Roster) Rejoin(name string) error {
	if !r.known(name) {
		return fmt.Errorf("fl: unknown client %q", name)
	}
	if r.active[name] {
		return fmt.Errorf("fl: client %q is already active", name)
	}
	if r.pending[name] {
		return fmt.Errorf("fl: client %q is already waiting to rejoin", name)
	}
	r.pending[name] = true
	return nil
}

// admit moves every pending client to active — the round-boundary admission
// step — and returns the admitted names in canonical order.
func (r *Roster) admit() []string {
	if len(r.pending) == 0 {
		return nil
	}
	var admitted []string
	for _, n := range r.order {
		if r.pending[n] {
			r.active[n] = true
			delete(r.pending, n)
			admitted = append(admitted, n)
		}
	}
	r.cached = false
	return admitted
}

// Active returns the live clients in canonical (client-index) order. The
// slice is shared with every caller until membership changes and must not be
// written.
func (r *Roster) Active() []string {
	if !r.cached {
		r.live, r.cached = r.members(r.active), true
	}
	return r.live
}

// Pending returns the clients awaiting round-boundary admission in canonical
// order.
func (r *Roster) Pending() []string { return r.members(r.pending) }

// members lists the roster members set holds, in canonical order.
func (r *Roster) members(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for _, n := range r.order {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// Restore resets the roster to exactly the given active set (a journal's
// last round-start membership); everyone else is departed, nobody pending.
func (r *Roster) Restore(active []string) {
	r.active = make(map[string]bool, len(active))
	r.pending = make(map[string]bool)
	for _, n := range active {
		r.active[n] = true
	}
	r.cached = false
}

// ClientIndex inverts ClientName: "client3" -> 3. The digits must be in the
// form ClientName writes — ASCII, no sign, no leading zero — so every name it
// accepts is the one ClientName gives back.
func ClientIndex(name string) (int, error) {
	digits, ok := strings.CutPrefix(name, "client")
	canonical := ok && digits != "" && (digits[0] != '0' || len(digits) == 1)
	for i := 0; canonical && i < len(digits); i++ {
		canonical = '0' <= digits[i] && digits[i] <= '9'
	}
	i, err := strconv.Atoi(digits) // still fails past the int range
	if !canonical || err != nil {
		return 0, fmt.Errorf("fl: %q is not a client name", name)
	}
	return i, nil
}
