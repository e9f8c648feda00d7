package fl

import (
	"fmt"
	"slices"
	"sort"
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
	return admitted
}

// Active returns the live clients in canonical (client-index) order.
func (r *Roster) Active() []string {
	out := make([]string, 0, len(r.active))
	for _, n := range r.order {
		if r.active[n] {
			out = append(out, n)
		}
	}
	return out
}

// Pending returns the clients awaiting round-boundary admission, sorted.
func (r *Roster) Pending() []string {
	out := make([]string, 0, len(r.pending))
	for n := range r.pending {
		out = append(out, n)
	}
	sort.Strings(out)
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
}

// ClientIndex inverts ClientName: "client3" -> 3.
func ClientIndex(name string) (int, error) {
	digits, ok := strings.CutPrefix(name, "client")
	if !ok {
		return 0, fmt.Errorf("fl: %q is not a client name", name)
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || ClientName(i) != name {
		return 0, fmt.Errorf("fl: %q is not a client name", name)
	}
	return i, nil
}
