//! The UNICOS batch-scheduling environment of §2.2, as a model.
//!
//! "Batch jobs … are queued according to two resource requirements —
//! CPU time and memory space. As the Cray Y-MP does not have virtual
//! memory, all of a program's memory must be contiguously allocated when
//! the program starts up … To simplify memory allocation, each queue is
//! given a fixed memory space. … for a given amount of CPU time required
//! by an application, turnaround time is shortest for the application
//! which requires the least main memory. Programmers take advantage of
//! this by structuring their program to use smaller in-memory data
//! structures while staging data to/from SSD or disk."
//!
//! [`BatchMachine`] models exactly that: a machine with fixed total
//! memory, a set of queues each with a per-job memory ceiling and a
//! fixed share of machine memory, FIFO dispatch within a queue, and
//! jobs that occupy their memory from dispatch to completion. The
//! [`memory-tradeoff example`](../examples/memory_tradeoff.rs) combines
//! it with the workload generator to show *why* venus's author chose a
//! tiny array.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use sim_core::{EventQueue, SimDuration, SimTime};

/// One batch queue: jobs needing at most `max_job_memory` wait here and
/// run inside the queue's dedicated memory partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueDef {
    /// Human-readable name ("small", "large", …).
    pub name: String,
    /// Largest per-job memory footprint admitted, bytes.
    pub max_job_memory: u64,
    /// The queue's fixed memory partition, bytes ("each queue is given a
    /// fixed memory space").
    pub partition: u64,
}

/// A job submission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// Identifier for reports.
    pub name: String,
    /// Contiguous memory required for the whole run.
    pub memory: u64,
    /// Wall-clock run time once dispatched (from a simulation or an
    /// estimate; I/O-bound jobs run longer than their CPU time).
    pub run_time: SimDuration,
    /// Submission time.
    pub submitted: SimTime,
}

/// A completed job's timings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// Queue it ran in.
    pub queue: String,
    /// When it started running.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Submission-to-completion span — the §2.2 "turnaround time".
    pub turnaround: SimDuration,
    /// Time spent waiting in the queue.
    pub queued: SimDuration,
}

/// The batch machine: queues with fixed partitions, FIFO within each.
#[derive(Debug)]
pub struct BatchMachine {
    queues: Vec<QueueDef>,
}

#[derive(Debug)]
enum Ev {
    Submit(usize),
    Finish { queue: usize, job: usize },
}

impl BatchMachine {
    /// Build a machine from queue definitions, ordered by ascending
    /// `max_job_memory` (the dispatcher puts each job in the *first*
    /// queue that admits it).
    pub fn new(mut queues: Vec<QueueDef>) -> BatchMachine {
        assert!(!queues.is_empty(), "need at least one queue");
        queues.sort_by_key(|q| q.max_job_memory);
        for q in &queues {
            assert!(
                q.partition >= q.max_job_memory,
                "queue {} cannot even hold one maximal job",
                q.name
            );
        }
        BatchMachine { queues }
    }

    /// The NASA-style default: a machine with 128 MW (1 GB) split into a
    /// small queue (≤ 8 MW jobs, 32 MW partition), a medium queue
    /// (≤ 32 MW jobs, 32 MW partition) and a large queue (≤ 64 MW jobs,
    /// 64 MW partition).
    pub fn ymp_default() -> BatchMachine {
        let mw = sim_core::units::MEGAWORD_BYTES;
        BatchMachine::new(vec![
            QueueDef { name: "small".into(), max_job_memory: 8 * mw, partition: 32 * mw },
            QueueDef { name: "medium".into(), max_job_memory: 32 * mw, partition: 32 * mw },
            QueueDef { name: "large".into(), max_job_memory: 64 * mw, partition: 64 * mw },
        ])
    }

    /// Which queue a job of `memory` bytes lands in.
    pub fn queue_for(&self, memory: u64) -> Option<usize> {
        self.queues.iter().position(|q| memory <= q.max_job_memory)
    }

    /// Run a set of submissions to completion and report outcomes in
    /// completion order. Jobs too large for every queue are rejected
    /// with an error listing their names.
    pub fn run(&self, jobs: &[Job]) -> Result<Vec<JobOutcome>, String> {
        // Validate placements first.
        let placements: Vec<usize> = {
            let mut p = Vec::with_capacity(jobs.len());
            let mut rejected = Vec::new();
            for j in jobs {
                match self.queue_for(j.memory) {
                    Some(q) => p.push(q),
                    None => rejected.push(j.name.clone()),
                }
            }
            if !rejected.is_empty() {
                return Err(format!("jobs exceed every queue: {}", rejected.join(", ")));
            }
            p
        };

        let mut events: EventQueue<Ev> = EventQueue::new();
        for (i, j) in jobs.iter().enumerate() {
            events.schedule(j.submitted, Ev::Submit(i));
        }
        let mut waiting: Vec<std::collections::VecDeque<usize>> =
            self.queues.iter().map(|_| Default::default()).collect();
        let mut free: Vec<u64> = self.queues.iter().map(|q| q.partition).collect();
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut started: Vec<Option<SimTime>> = vec![None; jobs.len()];

        while let Some((now, ev)) = events.pop() {
            match ev {
                Ev::Submit(i) => {
                    waiting[placements[i]].push_back(i);
                }
                Ev::Finish { queue, job } => {
                    free[queue] += jobs[job].memory;
                    let start = started[job].expect("finished jobs started");
                    outcomes.push(JobOutcome {
                        name: jobs[job].name.clone(),
                        queue: self.queues[queue].name.clone(),
                        started: start,
                        finished: now,
                        turnaround: now.saturating_since(jobs[job].submitted),
                        queued: start.saturating_since(jobs[job].submitted),
                    });
                }
            }
            // Dispatch: FIFO per queue, as memory allows.
            for (qi, q) in waiting.iter_mut().enumerate() {
                while let Some(&job) = q.front() {
                    if jobs[job].memory <= free[qi] {
                        q.pop_front();
                        free[qi] -= jobs[job].memory;
                        started[job] = Some(now);
                        events.schedule(now + jobs[job].run_time, Ev::Finish { queue: qi, job });
                    } else {
                        break;
                    }
                }
            }
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::MEGAWORD_BYTES as MW;

    fn job(name: &str, mw: u64, secs: u64, at: u64) -> Job {
        Job {
            name: name.into(),
            memory: mw * MW,
            run_time: SimDuration::from_secs(secs),
            submitted: SimTime::from_secs(at),
        }
    }

    #[test]
    fn jobs_route_to_the_tightest_queue() {
        let m = BatchMachine::ymp_default();
        assert_eq!(m.queue_for(4 * MW), Some(0));
        assert_eq!(m.queue_for(16 * MW), Some(1));
        assert_eq!(m.queue_for(64 * MW), Some(2));
        assert_eq!(m.queue_for(100 * MW), None);
    }

    #[test]
    fn oversized_jobs_are_rejected_with_names() {
        let m = BatchMachine::ymp_default();
        let err = m.run(&[job("whale", 120, 10, 0)]).unwrap_err();
        assert!(err.contains("whale"));
    }

    #[test]
    fn empty_queue_runs_jobs_immediately() {
        let m = BatchMachine::ymp_default();
        let out = m.run(&[job("a", 4, 100, 5)]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].queued, SimDuration::ZERO);
        assert_eq!(out[0].turnaround, SimDuration::from_secs(100));
        assert_eq!(out[0].queue, "small");
    }

    #[test]
    fn small_queue_parallelism_beats_large_queue_serialization() {
        // Four 8 MW jobs fill the 32 MW small partition concurrently;
        // four 32 MW jobs serialize in the 32 MW medium partition — the
        // §2.2 incentive in its purest form.
        let m = BatchMachine::ymp_default();
        let small: Vec<Job> = (0..4).map(|i| job(&format!("s{i}"), 8, 100, 0)).collect();
        let large: Vec<Job> = (0..4).map(|i| job(&format!("l{i}"), 32, 100, 0)).collect();
        let small_out = m.run(&small).unwrap();
        let large_out = m.run(&large).unwrap();
        let worst = |o: &[JobOutcome]| {
            o.iter().map(|j| j.turnaround.as_secs_f64()).fold(0.0, f64::max)
        };
        assert_eq!(worst(&small_out), 100.0, "small jobs all run at once");
        assert_eq!(worst(&large_out), 400.0, "large jobs serialize");
    }

    #[test]
    fn fifo_order_is_respected_within_a_queue() {
        let m = BatchMachine::ymp_default();
        // Two 32 MW jobs: the second waits for the first even though it
        // was submitted only a second later.
        let out = m
            .run(&[job("first", 32, 50, 0), job("second", 32, 50, 1)])
            .unwrap();
        let second = out.iter().find(|o| o.name == "second").unwrap();
        assert_eq!(second.started, SimTime::from_secs(50));
        assert_eq!(second.queued, SimDuration::from_secs(49));
    }

    #[test]
    fn queues_run_independently() {
        let m = BatchMachine::ymp_default();
        // A backlog in the medium queue does not delay a small job.
        let out = m
            .run(&[
                job("m1", 32, 500, 0),
                job("m2", 32, 500, 0),
                job("tiny", 2, 10, 1),
            ])
            .unwrap();
        let tiny = out.iter().find(|o| o.name == "tiny").unwrap();
        assert_eq!(tiny.queued, SimDuration::ZERO);
    }

    #[test]
    fn memory_is_conserved() {
        // Many random-ish jobs: at no completion is a partition
        // over-committed (checked implicitly by the dispatcher; here we
        // check totals come out right).
        let m = BatchMachine::ymp_default();
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(&format!("j{i}"), 1 + (i % 8), 10 + (i % 7) * 5, i / 3))
            .collect();
        let out = m.run(&jobs).unwrap();
        assert_eq!(out.len(), 40, "every job completes");
        for o in &out {
            assert!(o.finished > o.started || o.turnaround.is_zero());
        }
    }

    #[test]
    #[should_panic(expected = "cannot even hold one maximal job")]
    fn undersized_partition_rejected() {
        BatchMachine::new(vec![QueueDef {
            name: "broken".into(),
            max_job_memory: 64 * MW,
            partition: 32 * MW,
        }]);
    }
}
