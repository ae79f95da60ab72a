// dacd dashboard: a plain-JS client of the daemon's existing API.
// The job table refreshes by polling GET /jobs; each running job also
// gets an EventSource on its SSE stream. Explore jobs sample every
// explore.heartbeat (cumulative states + frontier); sweep jobs sample
// every sweep.candidate (cumulative states + candidate index);
// collections sweeps sample every collections.progress (collections
// decided + collection index). All three feed the states/sec +
// progress sparklines the same way.
"use strict";

const POLL_MS = 2000;
const SPARK_POINTS = 60; // sliding window of heartbeat-derived samples

// id -> {es: EventSource, samples: [{t, states, frontier, rate}], last: {t, states}}
const tracks = new Map();

function fmtBytes(n) {
  if (n < 1024) return n + " B";
  const units = ["KiB", "MiB", "GiB", "TiB"];
  let u = -1;
  do { n /= 1024; u++; } while (n >= 1024 && u < units.length - 1);
  return n.toFixed(1) + " " + units[u];
}

// sparkline renders two polylines (rate in accent, frontier in amber)
// as an inline SVG, each normalized to its own max over the window.
function sparkline(samples) {
  const w = 160, h = 28;
  if (!samples.length) return `<svg class="spark" width="${w}" height="${h}"></svg>`;
  const line = (key, cls) => {
    const max = Math.max(...samples.map(s => s[key]), 1);
    const pts = samples.map((s, i) => {
      const x = samples.length === 1 ? w : (i / (samples.length - 1)) * w;
      const y = h - 2 - (s[key] / max) * (h - 4);
      return x.toFixed(1) + "," + y.toFixed(1);
    }).join(" ");
    return `<polyline class="${cls}" points="${pts}"/>`;
  };
  return `<svg class="spark" width="${w}" height="${h}">` +
    line("frontier", "frontier") + line("rate", "rate") + "</svg>";
}

// track wires one SSE stream into a sample series. Heartbeats carry
// level-boundary snapshots; the rate is the delta between consecutive
// heartbeats over wall time.
function track(id) {
  if (tracks.has(id)) return tracks.get(id);
  const tr = { es: new EventSource(`/jobs/${id}/events`), samples: [], last: null };
  tr.es.onmessage = (msg) => {
    let ev;
    try { ev = JSON.parse(msg.data); } catch { return; }
    // Each event family yields (cumulative states, progress marker).
    let states, marker;
    if (ev.event === "explore.heartbeat") {
      states = ev.states;
      marker = ev.frontier;
    } else if (ev.event === "sweep.candidate") {
      tr.total = (tr.total || 0) + (ev.states || 0);
      states = tr.total;
      marker = ev.index;
    } else if (ev.event === "collections.progress") {
      // One event per decided collection; count events so the series
      // stays monotone.
      tr.total = (tr.total || 0) + 1;
      states = tr.total;
      marker = ev.index;
    } else {
      return;
    }
    const now = Date.now();
    let rate = 0;
    if (tr.last && now > tr.last.t) {
      rate = ((states - tr.last.states) * 1000) / (now - tr.last.t);
    }
    tr.last = { t: now, states };
    tr.samples.push({ t: now, states, frontier: marker, rate: Math.max(rate, 0) });
    if (tr.samples.length > SPARK_POINTS) tr.samples.shift();
    const row = document.getElementById("row-" + id);
    if (row) {
      row.querySelector(".rate-cell").textContent = tr.samples.at(-1).rate.toFixed(0);
      row.querySelector(".frontier-cell").textContent = ev.frontier;
      row.querySelector(".spark-cell").innerHTML = sparkline(tr.samples);
    }
  };
  tr.es.addEventListener("done", () => tr.es.close());
  tr.es.onerror = () => {}; // EventSource retries on its own
  tracks.set(id, tr);
  return tr;
}

function untrackFinished(jobsById) {
  for (const [id, tr] of tracks) {
    const j = jobsById.get(id);
    if (!j || (j.state !== "running" && j.state !== "pending")) {
      tr.es.close();
      // Keep the samples so a finished job's sparkline stays visible.
      if (!j) tracks.delete(id);
    }
  }
}

function render(data) {
  const tbody = document.querySelector("#jobs tbody");
  const byId = new Map(data.jobs.map(j => [j.id, j]));
  untrackFinished(byId);
  document.getElementById("empty").hidden = data.jobs.length > 0;
  tbody.innerHTML = data.jobs.map(j => {
    const tr = j.state === "running" ? track(j.id) : tracks.get(j.id);
    const samples = tr ? tr.samples : [];
    const lastRate = samples.length ? samples.at(-1).rate.toFixed(0) : "";
    const lastFrontier = samples.length ? samples.at(-1).frontier : "";
    const fetches = [];
    if (j.state === "done") {
      fetches.push(`<a href="/jobs/${j.id}/result">result</a>`);
      fetches.push(`<a href="/jobs/${j.id}/dot">dot</a>`);
    }
    fetches.push(`<a href="/jobs/${j.id}/events">events</a>`);
    return `<tr id="row-${j.id}">
      <td>${j.id}${j.archived ? " 🗜" : ""}</td>
      <td>${j.kind}</td>
      <td class="state-${j.state}">${j.state}${j.error ? " — " + j.error : ""}</td>
      <td class="num">${j.attempt || 0}</td>
      <td class="num rate-cell">${lastRate}</td>
      <td class="num frontier-cell">${lastFrontier}</td>
      <td class="spark-cell">${sparkline(samples)}</td>
      <td>${fetches.join(" · ")}</td>
    </tr>`;
  }).join("");
  document.getElementById("queue").textContent =
    `queue ${data.pending}/${data.max_pending || "∞"} pending`;
  document.getElementById("disk").textContent =
    `journal ${fmtBytes(data.journal_bytes)} · archive ${fmtBytes(data.archive_bytes)}`;
}

async function poll() {
  const conn = document.getElementById("conn");
  try {
    const resp = await fetch("/jobs");
    render(await resp.json());
    conn.textContent = "live";
    conn.className = "conn live";
  } catch {
    conn.textContent = "connection lost";
    conn.className = "conn lost";
  }
  setTimeout(poll, POLL_MS);
}

poll();
