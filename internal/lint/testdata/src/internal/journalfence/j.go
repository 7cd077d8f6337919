// Package journalfence seeds journalfence violations: functions
// reachable from a //lint:ack-path root must journal through
// AppendIfEpoch; raw append-family calls on a Journal there are
// findings, while Journal's own implementation and background (non-ack)
// paths stay clean.
package journalfence

// Journal mirrors the real crash journal's append family.
type Journal struct {
	records []int
	epoch   uint64
}

// appendSync is a raw synchronous append.
func (j *Journal) appendSync(rec int) {
	j.records = append(j.records, rec)
}

// appendLazy is a raw batched append.
func (j *Journal) appendLazy(rec int) {
	j.records = append(j.records, rec)
}

// AppendIfEpoch is the epoch-fenced append: the one blessed call on ack
// paths. Its internal raw append is exempt — the fence is implemented
// in terms of it.
func (j *Journal) AppendIfEpoch(ep uint64, rec int) bool {
	if j.epoch != ep {
		return false
	}
	j.appendSync(rec)
	return true
}

// Disk is an app-write target with a bound journal.
type Disk struct {
	jn *Journal
}

// Submit is the application-write entry point; everything it reaches is
// on the ack path. Its own AppendIfEpoch call is the blessed fence:
// clean.
//
//lint:ack-path fixture: Submit acks application writes and must record-then-ack
func (d *Disk) Submit(rec int) {
	if !d.jn.AppendIfEpoch(0, rec) {
		return
	}
	d.ack(rec)
}

// ack is one hop from the root: its raw append is a finding.
func (d *Disk) ack(rec int) {
	d.jn.appendSync(rec)
	d.flush(rec)
}

// flush is two hops from the root: reachability is transitive, so its
// raw append is a finding too.
func (d *Disk) flush(rec int) {
	d.jn.appendLazy(rec)
}

// backgroundCopy is not reachable from any ack root: the lazy append of
// copy progress is the legitimate background case and stays clean.
func backgroundCopy(jn *Journal) {
	jn.appendLazy(9)
}

// Background is the non-ack entry point of the background copy.
func Background(jn *Journal) { backgroundCopy(jn) }

// write is a pooled per-request record: its completion is a method value
// bound when the record is taken, and runs later through the scheduler.
type write struct {
	d      *Disk
	rec    int
	onDone func()
}

// take is reached from SubmitAsync, and binding the method value here is
// the call-graph edge that puts complete on the ack path.
func (d *Disk) take(rec int) *write {
	w := &write{d: d, rec: rec}
	w.onDone = w.complete
	return w
}

// complete is the ack of an asynchronous write, reached only through the
// bound method value: its raw append is a finding.
func (w *write) complete() {
	w.d.jn.appendSync(w.rec)
}

// SubmitAsync is an application-write entry point whose ack runs on a
// record's bound completion.
//
//lint:ack-path fixture: SubmitAsync acks through write.complete and must record-then-ack
func (d *Disk) SubmitAsync(rec int, schedule func(func())) {
	schedule(d.take(rec).onDone)
}
