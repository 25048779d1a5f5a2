package service

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// bigExactReq is an exact job slow enough on one worker that tests can
// reliably interrupt it mid-protocol.
func bigExactReq(seed int64) JobRequest {
	return JobRequest{
		Graph: GraphSpec{Family: "planted", N1: 128, N2: 128, K: 3, InP: 0.2, Seed: seed},
		Mode:  "exact",
	}
}

func waitRunning(t *testing.T, s *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v, _ := s.Job(id)
		if v.State == StateRunning && v.Rounds > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never showed progress (state %s)", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeadlineExpiresRunningJob(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	req := bigExactReq(11)
	req.DeadlineMS = 60
	v, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, v.ID, StateDeadline, 2*time.Minute)
	if final.Error == "" {
		t.Fatal("deadline outcome carries no error")
	}
	if final.Rounds <= 0 {
		t.Fatalf("partial progress lost: rounds = %d", final.Rounds)
	}
	if final.RetryAfterMS != 120 {
		t.Fatalf("retry_after_ms = %d, want 120 (2x budget)", final.RetryAfterMS)
	}
	if m := s.Metrics(); m.Deadlined != 1 || m.Canceled != 0 || m.Failed != 0 {
		t.Fatalf("deadlined/canceled/failed = %d/%d/%d, want 1/0/0", m.Deadlined, m.Canceled, m.Failed)
	}
	// The worker survives a deadline kill and serves the next job.
	next, err := s.Submit(cycleReq(64))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, next.ID, StateDone, 2*time.Minute)
}

func TestDefaultDeadlineApplies(t *testing.T) {
	s := New(Options{PoolSize: 1, DefaultDeadline: 60 * time.Millisecond})
	defer shutdown(t, s)
	v, err := s.Submit(bigExactReq(12))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, v.ID, StateDeadline, 2*time.Minute)
	if final.RetryAfterMS != 120 {
		t.Fatalf("retry_after_ms = %d, want 120", final.RetryAfterMS)
	}
}

func TestMaxJobRoundsBudget(t *testing.T) {
	s := New(Options{PoolSize: 1, MaxJobRounds: 10})
	defer shutdown(t, s)
	v, err := s.Submit(cycleReq(64)) // respect on a 64-cycle needs far more than 10 rounds
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, v.ID, StateDeadline, 2*time.Minute)
	if final.RetryAfterMS != 1000 {
		t.Fatalf("retry_after_ms = %d, want flat 1000 hint without a wall clock", final.RetryAfterMS)
	}
	if m := s.Metrics(); m.Deadlined != 1 {
		t.Fatalf("deadlined = %d, want 1", m.Deadlined)
	}
}

// A deadline that expires while the job is still queued kills it at the
// worker's fast-fail check, before any graph is built.
func TestQueuedJobDeadlineExpires(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	big, err := s.Submit(bigExactReq(13))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, big.ID)
	queued := cycleReq(64)
	queued.DeadlineMS = 30
	q, err := s.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the queued job's budget lapse
	if _, ok := s.Cancel(big.ID); !ok {
		t.Fatal("cancel returned unknown job")
	}
	waitState(t, s, q.ID, StateDeadline, 2*time.Minute)
}

// The deadline changes when an answer is abandoned, never which answer
// is computed: it must not split the cache key.
func TestDeadlineDoesNotSplitCache(t *testing.T) {
	a := cycleReq(64)
	b := cycleReq(64)
	b.DeadlineMS = 5000
	_, keyA, err := CanonicalRequest(a, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, keyB, err := CanonicalRequest(b, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("deadline_ms split the cache: %s != %s", keyA, keyB)
	}

	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	v, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDone, 2*time.Minute)
	hit, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("deadline-bearing resubmission missed the cache: %+v", hit)
	}
}

func TestNegativeDeadlineRejected(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	req := cycleReq(64)
	req.DeadlineMS = -1
	if _, err := s.Submit(req); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative deadline: %v, want ErrBadSpec", err)
	}
}

func TestAdmissionRejectsExpensiveExact(t *testing.T) {
	s := New(Options{PoolSize: 1, Admission: AdmissionOptions{CeilingRounds: 1}})
	defer shutdown(t, s)
	req := plantedReq(21)
	_, err := s.Submit(req)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("submit = %v, want AdmissionError", err)
	}
	est := adm.Est
	if est.LambdaLo < 1 || est.LambdaHi < est.LambdaLo || est.BracketRounds <= 0 {
		t.Fatalf("nonsense estimate: %+v", est)
	}
	if est.EstRounds <= est.Ceiling || est.Ceiling != 1 || est.HintTier != TierApprox {
		t.Fatalf("estimate not over ceiling: %+v", est)
	}
	if m := s.Metrics(); m.AdmissionChecks != 1 || m.AdmissionRejected != 1 || m.Submitted != 0 {
		t.Fatalf("checks/rejected/submitted = %d/%d/%d, want 1/1/0",
			m.AdmissionChecks, m.AdmissionRejected, m.Submitted)
	}

	// The pre-pass cached its bracket under the bracket tier key: the
	// hinted cheap retry — and any direct bracket submission — is a hit.
	br := req
	br.Mode = ""
	br.Tier = TierBracket
	hit, err := s.Submit(br)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("bracket after rejection not cache-served: %+v", hit)
	}
}

func TestAdmissionDowntiersWhenConfigured(t *testing.T) {
	s := New(Options{PoolSize: 1, Admission: AdmissionOptions{CeilingRounds: 1, Downtier: true}})
	defer shutdown(t, s)
	v, err := s.Submit(plantedReq(22))
	if err != nil {
		t.Fatal(err)
	}
	if v.Tier != TierApprox || v.DegradedFrom != TierExact {
		t.Fatalf("tier/degraded_from = %s/%s, want approx/exact", v.Tier, v.DegradedFrom)
	}
	final := waitState(t, s, v.ID, StateDone, 2*time.Minute)
	if final.DegradedFrom != TierExact {
		t.Fatalf("degraded_from lost on completion: %+v", final)
	}
	if m := s.Metrics(); m.AdmissionDowntiered != 1 || m.AdmissionRejected != 0 {
		t.Fatalf("downtiered/rejected = %d/%d, want 1/0", m.AdmissionDowntiered, m.AdmissionRejected)
	}
}

func TestAdmissionAdmitsCheapRequests(t *testing.T) {
	s := New(Options{PoolSize: 1, Admission: AdmissionOptions{CeilingRounds: 1 << 40}})
	defer shutdown(t, s)
	v, err := s.Submit(plantedReq(23))
	if err != nil {
		t.Fatal(err)
	}
	if v.DegradedFrom != "" {
		t.Fatalf("admitted job marked degraded: %+v", v)
	}
	waitState(t, s, v.ID, StateDone, 2*time.Minute)
	if m := s.Metrics(); m.AdmissionChecks != 1 || m.AdmissionRejected != 0 || m.AdmissionDowntiered != 0 {
		t.Fatalf("checks/rejected/downtiered = %d/%d/%d, want 1/0/0",
			m.AdmissionChecks, m.AdmissionRejected, m.AdmissionDowntiered)
	}
}

// Exact/tiered admission prices against the bracket result cached by
// earlier bracket traffic (byte-identical keys), so the pre-pass is
// free when the bracket already ran.
func TestAdmissionUsesCachedBracket(t *testing.T) {
	s := New(Options{PoolSize: 1, Admission: AdmissionOptions{CeilingRounds: 1}})
	defer shutdown(t, s)
	br := plantedReq(24)
	br.Mode = ""
	br.Tier = TierBracket
	v, err := s.Submit(br)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDone, 2*time.Minute)
	var adm *AdmissionError
	if _, err := s.Submit(plantedReq(24)); !errors.As(err, &adm) {
		t.Fatalf("submit = %v, want AdmissionError from cached bracket", err)
	}
	if m := s.Metrics(); m.AdmissionChecks != 1 {
		t.Fatalf("admission checks = %d, want 1", m.AdmissionChecks)
	}
}

func TestDegradeUnderQueuePressure(t *testing.T) {
	s := New(Options{PoolSize: 1, QueueDepth: 4, Degrade: DegradeOptions{ApproxAt: 0.25}})
	defer shutdown(t, s)
	running, err := s.Submit(bigExactReq(31))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, running.ID)
	queued, err := s.Submit(bigExactReq(32)) // occupies 1/4 of the queue
	if err != nil {
		t.Fatal(err)
	}
	// Pressure ≥ ApproxAt: a fresh exact submission is served at approx.
	v, err := s.Submit(plantedReq(33))
	if err != nil {
		t.Fatal(err)
	}
	if v.Tier != TierApprox || v.DegradedFrom != TierExact {
		t.Fatalf("tier/degraded_from = %s/%s, want approx/exact", v.Tier, v.DegradedFrom)
	}
	// The respect tier is diagnostics, never degraded.
	r, err := s.Submit(cycleReq(64))
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier != TierRespect || r.DegradedFrom != "" {
		t.Fatalf("respect degraded: %+v", r)
	}
	if m := s.Metrics(); m.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1", m.Degraded)
	}
	s.Cancel(running.ID)
	s.Cancel(queued.ID)
	waitState(t, s, v.ID, StateDone, 2*time.Minute)
}

func TestShedCounterCountsBusyRejections(t *testing.T) {
	s := New(Options{PoolSize: 1, QueueDepth: 1})
	defer shutdown(t, s)
	running, err := s.Submit(bigExactReq(41))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, running.ID)
	if _, err := s.Submit(bigExactReq(42)); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := s.Submit(bigExactReq(43)); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit on full queue: %v, want ErrBusy", err)
	}
	if m := s.Metrics(); m.Shed != 1 {
		t.Fatalf("shed = %d, want 1", m.Shed)
	}
	s.Cancel(running.ID)
}

// A tiered job whose deadline lapses while queued during a drain still
// publishes its cached approx phase — the same fast-answer guarantee a
// cancel mid-refinement gives — and never stalls the drain.
func TestDrainDeadlinePublishesCachedApprox(t *testing.T) {
	s := New(Options{PoolSize: 1})
	spec := GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 51}

	// Seed the approx cache for the spec.
	warm, err := s.Submit(JobRequest{Graph: spec, Tier: TierApprox})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, warm.ID, StateDone, 2*time.Minute)

	// Occupy the single worker with a short-deadline slow job, then
	// queue the tiered job with a deadline that lapses in the queue.
	// Left to finish, the slow job (planted 320+320, 1,378 rounds,
	// 2,499,762 messages) takes 1.46–1.75 s from submission to done on
	// one worker of a 2-core Xeon and shows its first round 7–32 ms
	// after submission, so its 150 ms deadline sits at under a tenth of
	// the run and well above the tiered job's.
	big := JobRequest{
		Graph:      GraphSpec{Family: "planted", N1: 320, N2: 320, K: 3, InP: 0.2, Seed: 52},
		Mode:       "exact",
		DeadlineMS: 150,
	}
	b, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, b.ID)
	tiered, err := s.Submit(JobRequest{Graph: spec, Tier: TierTiered, DeadlineMS: 50})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > time.Minute {
		t.Fatalf("drain stalled %v on deadline-bearing jobs", took)
	}
	bv, _ := s.Job(b.ID)
	if bv.State != StateDeadline {
		t.Fatalf("slow job state %s, want deadline", bv.State)
	}
	tv, _ := s.Job(tiered.ID)
	if tv.State != StateDeadline {
		t.Fatalf("tiered job state %s, want deadline", tv.State)
	}
	if len(tv.Approx) == 0 {
		t.Fatal("deadline during drain dropped the cached approx phase")
	}
	if tv.RetryAfterMS != 100 {
		t.Fatalf("retry_after_ms = %d, want 100", tv.RetryAfterMS)
	}
	// The published payload is the cached approx bytes, verbatim.
	if approx, ok := s.ResultByKey(mustTierKey(t, spec, TierApprox)); !ok || !bytes.Equal(approx, tv.Approx) {
		t.Fatal("published approx differs from the cached approx phase")
	}
}

func mustTierKey(t *testing.T, spec GraphSpec, tier string) string {
	t.Helper()
	canon, _, err := CanonicalRequest(JobRequest{Graph: spec, Tier: tier}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := TierKey(canon, tier, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return key
}
