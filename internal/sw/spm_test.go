package sw

import (
	"errors"
	"testing"
)

func TestSPMAllocFree(t *testing.T) {
	s := NewSPM()
	if s.Used() != 0 || s.Remaining() != SPMBytes {
		t.Fatal("fresh SPM not empty")
	}
	if err := s.Alloc("a", 1024); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := s.Alloc("b", 2048); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if s.Used() != 3072 {
		t.Fatalf("Used = %d, want 3072", s.Used())
	}
	if err := s.Free("a"); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if s.Used() != 2048 {
		t.Fatalf("Used after free = %d, want 2048", s.Used())
	}
	regions := s.Regions()
	if len(regions) != 1 || regions[0] != "b" {
		t.Fatalf("Regions = %v, want [b]", regions)
	}
}

func TestSPMOverflow(t *testing.T) {
	s := NewSPM()
	if err := s.Alloc("big", SPMBytes); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	err := s.Alloc("one-more", 1)
	if err == nil {
		t.Fatal("overflow not detected")
	}
	var overflow *ErrSPMOverflow
	if !errors.As(err, &overflow) {
		t.Fatalf("error %T, want *ErrSPMOverflow", err)
	}
	if overflow.Free != 0 || overflow.Requested != 1 {
		t.Fatalf("overflow detail = %+v", overflow)
	}
}

func TestSPMErrors(t *testing.T) {
	s := NewSPM()
	if err := s.Alloc("x", -1); err == nil {
		t.Error("negative alloc accepted")
	}
	if err := s.Alloc("x", 8); err != nil {
		t.Fatal(err)
	}
	if err := s.Alloc("x", 8); err == nil {
		t.Error("duplicate region accepted")
	}
	if err := s.Free("y"); err == nil {
		t.Error("free of unknown region accepted")
	}
}

func TestMaxDirectDestinationsMatchesPaper(t *testing.T) {
	// Section 4.3: 16 consumers x 64 KB SPM, 256-byte batches -> "we can
	// handle up to 1024 destinations in practice".
	if got := MaxDirectDestinations(16, 256); got != 1024 {
		t.Fatalf("MaxDirectDestinations(16, 256) = %d, want 1024", got)
	}
	if got := MaxDirectDestinations(0, 256); got != 0 {
		t.Errorf("zero consumers -> %d destinations, want 0", got)
	}
	if got := MaxDirectDestinations(16, 0); got != 0 {
		t.Errorf("zero batch -> %d destinations, want 0", got)
	}
}

func TestConsumerBufferPlan(t *testing.T) {
	// 64 destinations x 256 B fits one consumer.
	if err := ConsumerBufferPlan(NewSPM(), 64, 256); err != nil {
		t.Fatalf("64-destination plan should fit: %v", err)
	}
	// 65 destinations x 256 B overflows (64 KB - 48 KB reserved = 16 KB).
	err := ConsumerBufferPlan(NewSPM(), 65, 256)
	var overflow *ErrSPMOverflow
	if !errors.As(err, &overflow) {
		t.Fatalf("65-destination plan error = %v, want SPM overflow", err)
	}
	if err := ConsumerBufferPlan(NewSPM(), 0, 256); err == nil {
		t.Error("zero destinations accepted")
	}
	if err := ConsumerBufferPlan(NewSPM(), 4, -1); err == nil {
		t.Error("negative batch accepted")
	}
}

func TestNotifyFasterThanInterrupt(t *testing.T) {
	// The design rationale for flag polling: it must beat the ~10 us
	// interrupt by a wide margin.
	if speedup := InterruptLatencySeconds / FlagNotifyLatencySeconds(); speedup < 10 {
		t.Fatalf("flag polling only %.1fx faster than interrupts; paper expects order(s) of magnitude", speedup)
	}
}

// TestSmallMessageThreshold re-derives the published 1 KB threshold the
// way the paper did: the MPE streams a module input at MPE bandwidth, a
// CPE cluster pays the flag notification and then streams at cluster DMA
// bandwidth, and the two curves must cross near SmallMessageThresholdBytes
// (same order of magnitude).
func TestSmallMessageThreshold(t *testing.T) {
	var crossover int64
	for b := int64(64); b <= 64<<10; b *= 2 {
		onCPE := FlagNotifyLatencySeconds() + DMATime(b, DMASaturationChunk, CPEsPerCluster)
		if onCPE < MPETime(b, DMASaturationChunk) {
			crossover = b
			break
		}
	}
	if crossover < SmallMessageThresholdBytes/2 || crossover > 8*SmallMessageThresholdBytes {
		t.Fatalf("MPE/CPE dispatch crossover at %d bytes, want near %d", crossover, SmallMessageThresholdBytes)
	}
}
