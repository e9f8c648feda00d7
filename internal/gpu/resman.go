package gpu

// ResourceManager implements the paper's GPU resource manager (§IV-A2) as far
// as the modelled clock needs it: it keeps a table of common block sizes and
// picks the one that maximizes SM occupancy for a kernel's register demand,
// and decides how divergent branches execute (combined per warp vs. split,
// which doubles register pressure). The paper's address-marked memory table
// has no counterpart: no launch here allocates device memory, so there is
// nothing to reuse. A manager is immutable after NewResourceManager and safe
// for concurrent launches.
type ResourceManager struct {
	cfg        Config
	blockSizes []int // the "common block sizes" table

	// fine is the paper's manager; coarse allocation (fixedBlockSize, no
	// branch combining) models HAFLO's simpler scheme.
	fine bool
}

// fixedBlockSize is the coarse allocator's block size.
const fixedBlockSize = 1024

// NewResourceManager builds a manager for the device config. fine selects
// the paper's fine-grained policy; otherwise the manager behaves like a
// coarse allocator with a fixed block size of 1024 threads.
func NewResourceManager(cfg Config, fine bool) *ResourceManager {
	return &ResourceManager{
		cfg:        cfg,
		blockSizes: []int{32, 64, 128, 256, 512, 1024},
		fine:       fine,
	}
}

// Occupancy computes the fraction of an SM's thread slots a kernel with the
// given per-thread register count and block size can keep resident. This is
// the standard CUDA occupancy calculation restricted to the two limits the
// paper's manager balances: resident threads and the register file.
func (rm *ResourceManager) Occupancy(blockSize, regsPerThread int) float64 {
	if blockSize <= 0 {
		return 0
	}
	if regsPerThread < 1 {
		regsPerThread = 1
	}
	blocksByThreads := rm.cfg.MaxThreadsPerSM / blockSize
	blocksByRegs := rm.cfg.RegistersPerSM / (regsPerThread * blockSize)
	blocks := min(blocksByThreads, blocksByRegs)
	if blocks <= 0 {
		// The block does not fit as a whole; the SM still makes forward
		// progress one warp at a time, which is the floor utilization.
		return float64(rm.cfg.WarpSize) / float64(rm.cfg.MaxThreadsPerSM)
	}
	resident := blocks * blockSize
	if resident > rm.cfg.MaxThreadsPerSM {
		resident = rm.cfg.MaxThreadsPerSM
	}
	return float64(resident) / float64(rm.cfg.MaxThreadsPerSM)
}

// PickBlockSize chooses a block size for a kernel over `tasks` independent
// work items. The fine policy scans the block-size table for the best
// occupancy (breaking ties toward larger blocks, then clamps so small task
// counts still spread across SMs); the coarse policy returns the fixed size.
func (rm *ResourceManager) PickBlockSize(tasks, regsPerThread int) int {
	if !rm.fine {
		return min(fixedBlockSize, rm.cfg.MaxThreadsPerSM)
	}
	best, bestOcc := rm.blockSizes[0], -1.0
	for _, bs := range rm.blockSizes {
		occ := rm.Occupancy(bs, regsPerThread)
		if occ >= bestOcc {
			best, bestOcc = bs, occ
		}
	}
	// With few tasks, shrink the block so all SMs receive work.
	for best > rm.blockSizes[0] && tasks > 0 && (tasks+best-1)/best < rm.cfg.SMs {
		best /= 2
	}
	if best < rm.blockSizes[0] {
		best = rm.blockSizes[0]
	}
	return best
}

// BranchCost models a divergent branch taken by divergentLanes of a warp.
// The fine policy combines the branch (whole warp executes both sides:
// cost factor 2, no extra registers). The coarse policy splits the warp,
// which costs a factor proportional to the number of divergent groups and
// doubles register pressure — the paper's "double or even several times the
// number of registers". It returns the execution cost multiplier and the
// register multiplier.
func (rm *ResourceManager) BranchCost(divergentLanes int) (execFactor, regFactor float64) {
	if divergentLanes <= 0 {
		return 1, 1
	}
	if rm.fine {
		return 2, 1
	}
	groups := 2.0
	if divergentLanes > rm.cfg.WarpSize/2 {
		groups = 4.0
	}
	return groups, 2
}
