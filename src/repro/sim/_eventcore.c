/* Compiled event core for the repro.sim kernel.
 *
 * One opaque EventCore object per Simulator holding the timestamped
 * pending-event heap, the Timeout/Event free-lists and the untraced
 * dispatch loop -- the C twin of the pure-Python HeapqCore in
 * repro/sim/eventcore.py (the semantic reference; the equivalence
 * suite pins both backends to bit-identical event streams).
 *
 * Design notes:
 *
 * - The heap is an array of C structs {when, seq, ev}: no per-event
 *   tuple allocation and no rich comparisons.  `seq` is the global push
 *   counter, so equal-time ordering is FIFO and deterministic, exactly
 *   like the (when, seq, event) tuples of the heapq reference.
 *
 * - Event/Process fields are read and written through the slot offsets
 *   of their member descriptors, captured once from the Python classes
 *   at first use.  All event classes inherit Event's __slots__, so the
 *   offsets are valid for every subclass; objects whose type is not an
 *   Event subclass (duck-typed yields) fall back to generic attribute
 *   access with the exact semantics of Process._resume.
 *
 * - drive() mirrors the Python hot loop branch for branch: batched
 *   same-timestamp drain, inlined sole-waiter resume (generator send
 *   straight from C), refcount-gated free-list recycling.  After the
 *   pop this code owns the only C reference, so Py_REFCNT(ev) == 1 is
 *   the same sole-custody proof as getrefcount(event) == 2 in Python
 *   (loop local + getrefcount argument).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define EVENTCORE_VERSION "1"

/* ---------------------------------------------------------------- caches */

static int caches_ready = 0;

static PyObject *EventClass = NULL;     /* repro.sim.events.Event */
static PyObject *TimeoutClass = NULL;   /* repro.sim.events.Timeout */
static PyObject *ProcessClass = NULL;   /* repro.sim.events.Process */

/* Event slots (shared by every subclass). */
static Py_ssize_t off_ev_name = -1;
static Py_ssize_t off_ev_callbacks = -1;
static Py_ssize_t off_ev_value = -1;
static Py_ssize_t off_ev_ok = -1;
static Py_ssize_t off_ev_state = -1;
static Py_ssize_t off_ev_sole_waiter = -1;
/* Timeout slot. */
static Py_ssize_t off_to_delay = -1;
/* Process slots. */
static Py_ssize_t off_pr_send = -1;
static Py_ssize_t off_pr_waiting_on = -1;
static Py_ssize_t off_pr_interrupts = -1;
static Py_ssize_t off_pr_started = -1;
/* Simulator slots. */
static Py_ssize_t off_sim_now = -1;
static Py_ssize_t off_sim_failures = -1;

static PyObject *int_zero = NULL;       /* the small-int singletons the  */
static PyObject *int_one = NULL;        /* Python kernel stores in _state */
static PyObject *int_two = NULL;
static PyObject *empty_string = NULL;

static PyObject *s_resume = NULL;            /* "_resume" */
static PyObject *s_finish = NULL;            /* "_finish" */
static PyObject *s_process_callbacks = NULL; /* "_process_callbacks" */
static PyObject *s_raise_orphans = NULL;     /* "_raise_orphans" */
static PyObject *s_state = NULL;             /* "_state" */
static PyObject *s_sole_waiter = NULL;       /* "_sole_waiter" */
static PyObject *s_callbacks = NULL;         /* "callbacks" */
static PyObject *s_waiting_on = NULL;        /* "_waiting_on" */
static PyObject *s_append = NULL;            /* "append" */
static PyObject *s_value = NULL;             /* "value" */

#define SLOT(ob, off) (*(PyObject **)((char *)(ob) + (off)))

/* Store `v` (a borrowed ref) into a slot, replacing the old value. */
static inline void
slot_store(PyObject *ob, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOT(ob, off);
    Py_INCREF(v);
    SLOT(ob, off) = v;
    Py_XDECREF(old);
}

static Py_ssize_t
slot_offset(PyObject *cls, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    Py_ssize_t off;

    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%S.%s is not a __slots__ member descriptor",
                     cls, name);
        Py_DECREF(descr);
        return -1;
    }
    off = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return off;
}

static int
ensure_caches(void)
{
    PyObject *events_mod = NULL, *engine_mod = NULL, *sim_cls = NULL;

    if (caches_ready)
        return 0;

    events_mod = PyImport_ImportModule("repro.sim.events");
    if (events_mod == NULL)
        goto error;
    EventClass = PyObject_GetAttrString(events_mod, "Event");
    TimeoutClass = PyObject_GetAttrString(events_mod, "Timeout");
    ProcessClass = PyObject_GetAttrString(events_mod, "Process");
    if (EventClass == NULL || TimeoutClass == NULL || ProcessClass == NULL)
        goto error;

    engine_mod = PyImport_ImportModule("repro.sim.engine");
    if (engine_mod == NULL)
        goto error;
    sim_cls = PyObject_GetAttrString(engine_mod, "Simulator");
    if (sim_cls == NULL)
        goto error;

    if ((off_ev_name = slot_offset(EventClass, "name")) < 0 ||
        (off_ev_callbacks = slot_offset(EventClass, "callbacks")) < 0 ||
        (off_ev_value = slot_offset(EventClass, "_value")) < 0 ||
        (off_ev_ok = slot_offset(EventClass, "_ok")) < 0 ||
        (off_ev_state = slot_offset(EventClass, "_state")) < 0 ||
        (off_ev_sole_waiter = slot_offset(EventClass, "_sole_waiter")) < 0 ||
        (off_to_delay = slot_offset(TimeoutClass, "delay")) < 0 ||
        (off_pr_send = slot_offset(ProcessClass, "_send")) < 0 ||
        (off_pr_waiting_on = slot_offset(ProcessClass, "_waiting_on")) < 0 ||
        (off_pr_interrupts = slot_offset(ProcessClass, "_interrupts")) < 0 ||
        (off_pr_started = slot_offset(ProcessClass, "_started")) < 0 ||
        (off_sim_now = slot_offset(sim_cls, "now")) < 0 ||
        (off_sim_failures = slot_offset(sim_cls, "_failures")) < 0)
        goto error;

    int_zero = PyLong_FromLong(0);
    int_one = PyLong_FromLong(1);
    int_two = PyLong_FromLong(2);
    empty_string = PyUnicode_InternFromString("");
    s_resume = PyUnicode_InternFromString("_resume");
    s_finish = PyUnicode_InternFromString("_finish");
    s_process_callbacks = PyUnicode_InternFromString("_process_callbacks");
    s_raise_orphans = PyUnicode_InternFromString("_raise_orphans");
    s_state = PyUnicode_InternFromString("_state");
    s_sole_waiter = PyUnicode_InternFromString("_sole_waiter");
    s_callbacks = PyUnicode_InternFromString("callbacks");
    s_waiting_on = PyUnicode_InternFromString("_waiting_on");
    s_append = PyUnicode_InternFromString("append");
    s_value = PyUnicode_InternFromString("value");
    if (int_zero == NULL || int_one == NULL || int_two == NULL ||
        empty_string == NULL || s_resume == NULL || s_finish == NULL ||
        s_process_callbacks == NULL || s_raise_orphans == NULL ||
        s_state == NULL || s_sole_waiter == NULL || s_callbacks == NULL ||
        s_waiting_on == NULL || s_append == NULL || s_value == NULL)
        goto error;

    Py_DECREF(events_mod);
    Py_DECREF(engine_mod);
    Py_DECREF(sim_cls);
    caches_ready = 1;
    return 0;

error:
    Py_XDECREF(events_mod);
    Py_XDECREF(engine_mod);
    Py_XDECREF(sim_cls);
    return -1;
}

/* ------------------------------------------------------------- EventCore */

typedef struct {
    double when;
    unsigned long long seq;
    PyObject *ev;               /* owned */
} heapnode;

typedef struct {
    PyObject_HEAD
    PyObject *sim;              /* owned; part of the sim<->core cycle */
    heapnode *heap;
    Py_ssize_t len;
    Py_ssize_t cap;
    unsigned long long sequence;
    Py_ssize_t pool_limit;
    PyObject *timeout_pool;     /* owned list */
    PyObject *event_pool;       /* owned list */
} EventCoreObject;

static int
heap_push(EventCoreObject *self, double when, PyObject *ev)
{
    heapnode *h;
    Py_ssize_t pos, parent;
    unsigned long long seq;

    if (self->len == self->cap) {
        Py_ssize_t newcap = self->cap ? self->cap * 2 : 64;
        heapnode *grown = PyMem_Realloc(self->heap,
                                        (size_t)newcap * sizeof(heapnode));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->heap = grown;
        self->cap = newcap;
    }
    seq = ++self->sequence;
    h = self->heap;
    pos = self->len++;
    while (pos > 0) {
        parent = (pos - 1) >> 1;
        /* seq is globally increasing: a fresh push can never order
         * before an equal-time node already in the heap. */
        if (when < h[parent].when) {
            h[pos] = h[parent];
            pos = parent;
        }
        else
            break;
    }
    h[pos].when = when;
    h[pos].seq = seq;
    h[pos].ev = ev;
    Py_INCREF(ev);
    return 0;
}

/* Caller guarantees len > 0; returns the heap's (owned) reference. */
static PyObject *
heap_pop_ev(EventCoreObject *self, double *when_out)
{
    heapnode *h = self->heap;
    PyObject *ev = h[0].ev;
    Py_ssize_t n, pos, child;

    *when_out = h[0].when;
    n = --self->len;
    if (n > 0) {
        heapnode last = h[n];
        pos = 0;
        for (;;) {
            child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                (h[child + 1].when < h[child].when ||
                 (h[child + 1].when == h[child].when &&
                  h[child + 1].seq < h[child].seq)))
                child++;
            if (h[child].when < last.when ||
                (h[child].when == last.when && h[child].seq < last.seq)) {
                h[pos] = h[child];
                pos = child;
            }
            else
                break;
        }
        h[pos] = last;
    }
    return ev;
}

/* `not x` for the callbacks/_interrupts fields (always a list or None
 * in the kernel; generic truth test kept as a fallback). */
static inline int
is_falsy(PyObject *ob)
{
    if (ob == Py_None)
        return 1;
    if (PyList_CheckExact(ob))
        return PyList_GET_SIZE(ob) == 0;
    return PyObject_IsTrue(ob) == 0;
}

static int
set_now(PyObject *sim, double when)
{
    PyObject *f = PyFloat_FromDouble(when);
    PyObject *old;

    if (f == NULL)
        return -1;
    old = SLOT(sim, off_sim_now);
    SLOT(sim, off_sim_now) = f;
    Py_XDECREF(old);
    return 0;
}

/* Register `waiter` on a yielded target through generic attribute
 * access -- the cold path for duck-typed (non-Event) yields, with the
 * exact branch structure of Process._resume. */
static int
register_generic(PyObject *sim, PyObject *waiter, PyObject *target)
{
    PyObject *tstate = PyObject_GetAttr(target, s_state);

    if (tstate == NULL) {
        PyObject *trigger, *msg, *exc, *name, *r;
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
        /* Failing trigger event with the reference TypeError. */
        name = SLOT(waiter, off_ev_name);
        msg = PyUnicode_FromFormat(
            "process %R yielded non-event %R; yield Event/Timeout/Process",
            name, target);
        if (msg == NULL)
            return -1;
        exc = PyObject_CallOneArg(PyExc_TypeError, msg);
        Py_DECREF(msg);
        if (exc == NULL)
            return -1;
        trigger = PyObject_CallOneArg(EventClass, sim);
        if (trigger == NULL) {
            Py_DECREF(exc);
            return -1;
        }
        slot_store(trigger, off_ev_ok, Py_False);
        slot_store(trigger, off_ev_value, exc);
        Py_DECREF(exc);
        r = PyObject_CallMethodObjArgs(waiter, s_resume, trigger, NULL);
        Py_DECREF(trigger);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }

    {
        int processed = PyObject_RichCompareBool(tstate, int_two, Py_EQ);
        Py_DECREF(tstate);
        if (processed < 0)
            return -1;
        if (processed) {
            PyObject *r = PyObject_CallMethodObjArgs(waiter, s_resume,
                                                     target, NULL);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            return 0;
        }
    }
    {
        PyObject *tsw = PyObject_GetAttr(target, s_sole_waiter);
        PyObject *tcb;
        int empty_cbs;
        if (tsw == NULL)
            return -1;
        tcb = PyObject_GetAttr(target, s_callbacks);
        if (tcb == NULL) {
            Py_DECREF(tsw);
            return -1;
        }
        empty_cbs = is_falsy(tcb);
        if (tsw == Py_None && empty_cbs) {
            slot_store(waiter, off_pr_waiting_on, target);
            if (PyObject_SetAttr(target, s_sole_waiter, waiter) < 0)
                goto generic_error;
        }
        else {
            PyObject *resume = PyObject_GetAttr(waiter, s_resume);
            PyObject *r;
            if (resume == NULL)
                goto generic_error;
            slot_store(waiter, off_pr_waiting_on, target);
            r = PyObject_CallMethodObjArgs(tcb, s_append, resume, NULL);
            Py_DECREF(resume);
            if (r == NULL)
                goto generic_error;
            Py_DECREF(r);
        }
        Py_DECREF(tsw);
        Py_DECREF(tcb);
        return 0;
    generic_error:
        Py_DECREF(tsw);
        Py_DECREF(tcb);
        return -1;
    }
}

/* Dispatch one popped event (borrowed ref; caller owns it).  Mirrors
 * the inlined loop body of the Python backends' drive(). */
static int
dispatch_event(EventCoreObject *self, PyObject *sim, PyObject *ev)
{
    PyObject *waiter = SLOT(ev, off_ev_sole_waiter);
    PyObject *callbacks = SLOT(ev, off_ev_callbacks);
    PyTypeObject *cls;

    if (waiter == Py_None || !is_falsy(callbacks)) {
        /* Reference path: Event._process_callbacks(). */
        PyObject *r = PyObject_CallMethodNoArgs(ev, s_process_callbacks);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }

    Py_INCREF(waiter);
    slot_store(ev, off_ev_sole_waiter, Py_None);
    slot_store(ev, off_ev_state, int_two);          /* Event.PROCESSED */

    if (is_falsy(SLOT(waiter, off_pr_interrupts)) &&
        SLOT(ev, off_ev_ok) == Py_True &&
        SLOT(waiter, off_pr_started) == Py_True) {
        /* Inlined Process._resume fast path: an ok trigger into a
         * started, uninterrupted process. */
        PyObject *send = SLOT(waiter, off_pr_send);
        PyObject *val = SLOT(ev, off_ev_value);
        PyObject *target;

        slot_store(waiter, off_pr_waiting_on, Py_None);
        Py_INCREF(send);
        Py_INCREF(val);
        target = PyObject_CallOneArg(send, val);
        Py_DECREF(send);
        Py_DECREF(val);

        if (target == NULL) {
            PyObject *etype, *evalue, *etb, *ok, *finish_val, *r;
            int stopped = PyErr_ExceptionMatches(PyExc_StopIteration);
            PyErr_Fetch(&etype, &evalue, &etb);
            PyErr_NormalizeException(&etype, &evalue, &etb);
            if (etb != NULL && evalue != NULL)
                PyException_SetTraceback(evalue, etb);
            if (stopped) {
                ok = Py_True;
                finish_val = PyObject_GetAttr(evalue, s_value);
                if (finish_val == NULL) {
                    Py_XDECREF(etype);
                    Py_XDECREF(evalue);
                    Py_XDECREF(etb);
                    goto error;
                }
            }
            else {
                /* `except BaseException as exc` in the reference. */
                ok = Py_False;
                finish_val = evalue;
                Py_XINCREF(finish_val);
            }
            Py_XDECREF(etype);
            Py_XDECREF(evalue);
            Py_XDECREF(etb);
            r = PyObject_CallMethodObjArgs(waiter, s_finish, ok,
                                           finish_val, NULL);
            Py_XDECREF(finish_val);
            if (r == NULL)
                goto error;
            Py_DECREF(r);
        }
        else if (PyObject_TypeCheck(target, (PyTypeObject *)EventClass)) {
            PyObject *tstate = SLOT(target, off_ev_state);
            if (tstate == int_two) {
                /* Already processed: delivering it through _resume is
                 * exactly the reference loop's `trigger = target`. */
                PyObject *r = PyObject_CallMethodObjArgs(waiter, s_resume,
                                                         target, NULL);
                if (r == NULL) {
                    Py_DECREF(target);
                    goto error;
                }
                Py_DECREF(r);
            }
            else {
                PyObject *tsw = SLOT(target, off_ev_sole_waiter);
                PyObject *tcb = SLOT(target, off_ev_callbacks);
                if (tsw == Py_None && is_falsy(tcb)) {
                    slot_store(waiter, off_pr_waiting_on, target);
                    slot_store(target, off_ev_sole_waiter, waiter);
                }
                else {
                    PyObject *resume = PyObject_GetAttr(waiter, s_resume);
                    if (resume == NULL) {
                        Py_DECREF(target);
                        goto error;
                    }
                    slot_store(waiter, off_pr_waiting_on, target);
                    if (PyList_CheckExact(tcb)) {
                        if (PyList_Append(tcb, resume) < 0) {
                            Py_DECREF(resume);
                            Py_DECREF(target);
                            goto error;
                        }
                        Py_DECREF(resume);
                    }
                    else {
                        PyObject *r = PyObject_CallMethodObjArgs(
                            tcb, s_append, resume, NULL);
                        Py_DECREF(resume);
                        if (r == NULL) {
                            Py_DECREF(target);
                            goto error;
                        }
                        Py_DECREF(r);
                    }
                }
            }
            Py_DECREF(target);
        }
        else {
            int st = register_generic(sim, waiter, target);
            Py_DECREF(target);
            if (st < 0)
                goto error;
        }
    }
    else {
        /* Cold shapes: the complete reference method. */
        PyObject *r = PyObject_CallMethodObjArgs(waiter, s_resume, ev, NULL);
        if (r == NULL)
            goto error;
        Py_DECREF(r);
    }
    Py_DECREF(waiter);

    /* Free-list recycling: exact class match first, then sole custody
     * (the caller's reference is the only one left). */
    cls = Py_TYPE(ev);
    if (cls == (PyTypeObject *)TimeoutClass) {
        if (Py_REFCNT(ev) == 1 &&
            PyList_GET_SIZE(self->timeout_pool) < self->pool_limit) {
            slot_store(ev, off_ev_value, Py_None);
            slot_store(ev, off_ev_ok, Py_True);
            slot_store(ev, off_ev_name, empty_string);
            if (PyList_Append(self->timeout_pool, ev) < 0)
                return -1;
        }
    }
    else if (cls == (PyTypeObject *)EventClass) {
        if (Py_REFCNT(ev) == 1 &&
            PyList_GET_SIZE(self->event_pool) < self->pool_limit) {
            slot_store(ev, off_ev_value, Py_None);
            slot_store(ev, off_ev_ok, Py_True);
            slot_store(ev, off_ev_name, empty_string);
            if (PyList_Append(self->event_pool, ev) < 0)
                return -1;
        }
    }
    return 0;

error:
    Py_DECREF(waiter);
    return -1;
}

/* ------------------------------------------------------------ tp methods */

static int
core_init(EventCoreObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim;
    Py_ssize_t pool_limit;
    static char *kwlist[] = {"sim", "pool_limit", NULL};

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "On:EventCore", kwlist,
                                     &sim, &pool_limit))
        return -1;
    if (ensure_caches() < 0)
        return -1;
    Py_INCREF(sim);
    Py_XSETREF(self->sim, sim);
    self->pool_limit = pool_limit;
    if (self->timeout_pool == NULL) {
        self->timeout_pool = PyList_New(0);
        if (self->timeout_pool == NULL)
            return -1;
    }
    if (self->event_pool == NULL) {
        self->event_pool = PyList_New(0);
        if (self->event_pool == NULL)
            return -1;
    }
    return 0;
}

static int
core_traverse(EventCoreObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;

    Py_VISIT(self->sim);
    Py_VISIT(self->timeout_pool);
    Py_VISIT(self->event_pool);
    for (i = 0; i < self->len; i++)
        Py_VISIT(self->heap[i].ev);
    return 0;
}

static int
core_clear(EventCoreObject *self)
{
    Py_ssize_t i, n = self->len;

    self->len = 0;
    for (i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].ev);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->timeout_pool);
    Py_CLEAR(self->event_pool);
    return 0;
}

static void
core_dealloc(EventCoreObject *self)
{
    PyObject_GC_UnTrack(self);
    core_clear(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
core_length(EventCoreObject *self)
{
    return self->len;
}

static PyObject *
core_push(EventCoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double when;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "push() takes exactly 2 arguments (when, event)");
        return NULL;
    }
    when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    if (heap_push(self, when, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
core_pop(EventCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    double when;
    PyObject *ev, *when_obj, *result;

    if (self->len == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty event core");
        return NULL;
    }
    ev = heap_pop_ev(self, &when);
    when_obj = PyFloat_FromDouble(when);
    if (when_obj == NULL) {
        Py_DECREF(ev);
        return NULL;
    }
    result = PyTuple_New(2);
    if (result == NULL) {
        Py_DECREF(when_obj);
        Py_DECREF(ev);
        return NULL;
    }
    PyTuple_SET_ITEM(result, 0, when_obj);
    PyTuple_SET_ITEM(result, 1, ev);
    return result;
}

static PyObject *
core_peek(EventCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(self->len ? self->heap[0].when : Py_HUGE_VAL);
}

static PyObject *
core_timeout(EventCoreObject *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PyObject *delay_obj = NULL, *value = NULL, *name = NULL;
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    Py_ssize_t i;

    if (nargs >= 1)
        delay_obj = args[0];
    if (nargs >= 2)
        value = args[1];
    if (nargs >= 3)
        name = args[2];
    if (nargs > 3) {
        PyErr_SetString(PyExc_TypeError, "timeout() takes at most 3 arguments");
        return NULL;
    }
    for (i = 0; i < nkw; i++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, i);
        PyObject *kv = args[nargs + i];
        if (PyUnicode_CompareWithASCIIString(key, "value") == 0)
            value = kv;
        else if (PyUnicode_CompareWithASCIIString(key, "name") == 0)
            name = kv;
        else if (PyUnicode_CompareWithASCIIString(key, "delay") == 0)
            delay_obj = kv;
        else {
            PyErr_Format(PyExc_TypeError,
                         "timeout() got an unexpected keyword argument %R",
                         key);
            return NULL;
        }
    }
    if (delay_obj == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "timeout() missing required argument: 'delay'");
        return NULL;
    }

    if (PyList_GET_SIZE(self->timeout_pool) > 0 &&
        (value == NULL || value == Py_None) &&
        (name == NULL || name == Py_None ||
         (PyUnicode_CheckExact(name) && PyUnicode_GET_LENGTH(name) == 0))) {
        /* Pooled fast path: the dominant sim.timeout(d) call shape. */
        double delay = PyFloat_AsDouble(delay_obj);
        double now;
        PyObject *timeout;
        Py_ssize_t last;

        if (delay == -1.0 && PyErr_Occurred())
            return NULL;
        if (delay < 0) {
            PyErr_Format(PyExc_ValueError, "negative timeout delay: %S",
                         delay_obj);
            return NULL;
        }
        now = PyFloat_AsDouble(SLOT(self->sim, off_sim_now));
        if (now == -1.0 && PyErr_Occurred())
            return NULL;
        last = PyList_GET_SIZE(self->timeout_pool) - 1;
        timeout = PyList_GET_ITEM(self->timeout_pool, last);
        Py_INCREF(timeout);
        if (PyList_SetSlice(self->timeout_pool, last, last + 1, NULL) < 0) {
            Py_DECREF(timeout);
            return NULL;
        }
        /* Recycled instances were reset on entry to the pool (no
         * callbacks, no waiter, value None, ok True, name ""). */
        slot_store(timeout, off_to_delay, delay_obj);
        slot_store(timeout, off_ev_state, int_one);  /* Event.TRIGGERED */
        if (heap_push(self, now + delay, timeout) < 0) {
            Py_DECREF(timeout);
            return NULL;
        }
        return timeout;
    }

    return PyObject_CallFunctionObjArgs(
        TimeoutClass, self->sim, delay_obj,
        value ? value : Py_None,
        name ? name : empty_string, NULL);
}

/* Pop the last pool entry (caller checked non-empty); returns owned. */
static PyObject *
pool_pop(PyObject *pool)
{
    Py_ssize_t last = PyList_GET_SIZE(pool) - 1;
    PyObject *ev = PyList_GET_ITEM(pool, last);

    Py_INCREF(ev);
    if (PyList_SetSlice(pool, last, last + 1, NULL) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return ev;
}

static PyObject *
core_event(EventCoreObject *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    PyObject *name = NULL;
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;

    if (nargs >= 1)
        name = args[0];
    if (nargs > 1 || nkw > 1 ||
        (nkw == 1 && (nargs == 1 || PyUnicode_CompareWithASCIIString(
                          PyTuple_GET_ITEM(kwnames, 0), "name") != 0))) {
        PyErr_SetString(PyExc_TypeError,
                        "event() takes one optional argument: name");
        return NULL;
    }
    if (nkw == 1)
        name = args[nargs];
    if (name == NULL)
        name = empty_string;

    if (PyList_GET_SIZE(self->event_pool) > 0) {
        PyObject *ev = pool_pop(self->event_pool);
        if (ev == NULL)
            return NULL;
        slot_store(ev, off_ev_name, name);
        slot_store(ev, off_ev_state, int_zero);      /* Event.PENDING */
        return ev;
    }
    return PyObject_CallFunctionObjArgs(EventClass, self->sim, name, NULL);
}

static PyObject *
core_wakeup(EventCoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *process, *name, *ev;
    double now;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "wakeup() takes exactly 2 arguments (process, name)");
        return NULL;
    }
    process = args[0];
    name = args[1];

    if (PyList_GET_SIZE(self->event_pool) > 0) {
        ev = pool_pop(self->event_pool);
        if (ev == NULL)
            return NULL;
        slot_store(ev, off_ev_name, name);
    }
    else {
        ev = PyObject_CallFunctionObjArgs(EventClass, self->sim, name, NULL);
        if (ev == NULL)
            return NULL;
    }
    slot_store(ev, off_ev_state, int_one);           /* Event.TRIGGERED */
    slot_store(ev, off_ev_sole_waiter, process);
    now = PyFloat_AsDouble(SLOT(self->sim, off_sim_now));
    if (now == -1.0 && PyErr_Occurred()) {
        Py_DECREF(ev);
        return NULL;
    }
    if (heap_push(self, now, ev) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return ev;
}

static PyObject *
core_drive(EventCoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double until;
    PyObject *sim = self->sim;

    if (nargs == 0 || args[0] == Py_None)
        until = Py_HUGE_VAL;
    else {
        until = PyFloat_AsDouble(args[0]);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }

    while (self->len) {
        double when = self->heap[0].when;
        PyObject *ev;

        if (when > until)
            break;
        ev = heap_pop_ev(self, &when);
        if (set_now(sim, when) < 0) {
            Py_DECREF(ev);
            return NULL;
        }
        for (;;) {
            PyObject *fails;

            if (dispatch_event(self, sim, ev) < 0) {
                Py_DECREF(ev);
                return NULL;
            }
            /* Checked per event, not per batch: a waiter must be able
             * to absorb a failure before the failed process's own
             * completion event (same instant) clears its waiter. */
            fails = SLOT(sim, off_sim_failures);
            if (!is_falsy(fails)) {
                PyObject *r = PyObject_CallMethodNoArgs(sim,
                                                        s_raise_orphans);
                if (r == NULL) {
                    Py_DECREF(ev);
                    return NULL;
                }
                Py_DECREF(r);
            }
            Py_DECREF(ev);
            if (self->len && self->heap[0].when == when) {
                double ignored;
                ev = heap_pop_ev(self, &ignored);
            }
            else
                break;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
core_sequence_get(EventCoreObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromUnsignedLongLong(self->sequence);
}

static PyObject *
core_repr(EventCoreObject *self)
{
    return PyUnicode_FromFormat("<EventCore pending=%zd seq=%llu>",
                                self->len, self->sequence);
}

static PyMethodDef core_methods[] = {
    {"push", (PyCFunction)(void (*)(void))core_push, METH_FASTCALL,
     "push(when, event)\n\nInsert event at `when` behind all earlier pushes."},
    {"pop", (PyCFunction)core_pop, METH_NOARGS,
     "pop() -> (when, event)\n\nRemove and return the earliest event."},
    {"peek", (PyCFunction)core_peek, METH_NOARGS,
     "peek() -> float\n\nTime of the next event, or inf when empty."},
    {"timeout", (PyCFunction)(void (*)(void))core_timeout,
     METH_FASTCALL | METH_KEYWORDS,
     "timeout(delay, value=None, name='') -> Timeout\n\n"
     "Pooled timeout factory (see HeapqCore.timeout)."},
    {"event", (PyCFunction)(void (*)(void))core_event,
     METH_FASTCALL | METH_KEYWORDS,
     "event(name='') -> Event\n\nPooled pending-event factory."},
    {"wakeup", (PyCFunction)(void (*)(void))core_wakeup, METH_FASTCALL,
     "wakeup(process, name) -> Event\n\n"
     "Pooled, already-triggered direct-resume event at now."},
    {"drive", (PyCFunction)(void (*)(void))core_drive, METH_FASTCALL,
     "drive(until)\n\nDispatch events (to `until`, inclusive); the\n"
     "untraced hot loop (batching, inline resume, recycling)."},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef core_members[] = {
    {"sim", T_OBJECT_EX, offsetof(EventCoreObject, sim), READONLY,
     "Owning simulator."},
    {"timeout_pool", T_OBJECT_EX, offsetof(EventCoreObject, timeout_pool),
     READONLY, "Free-list of recycled Timeout instances."},
    {"event_pool", T_OBJECT_EX, offsetof(EventCoreObject, event_pool),
     READONLY, "Free-list of recycled Event instances."},
    {NULL, 0, 0, 0, NULL}
};

static PyGetSetDef core_getset[] = {
    {"sequence", (getter)core_sequence_get, NULL,
     "Total events ever pushed (the FIFO tie-break counter).", NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PySequenceMethods core_as_sequence = {
    .sq_length = (lenfunc)core_length,
};

static PyTypeObject EventCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._eventcore.EventCore",
    .tp_basicsize = sizeof(EventCoreObject),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_repr = (reprfunc)core_repr,
    .tp_as_sequence = &core_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event core: pending-event heap, free-lists and\n"
              "the untraced dispatch loop, behind the same API as the\n"
              "pure-Python HeapqCore in repro.sim.eventcore.",
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear,
    .tp_methods = core_methods,
    .tp_members = core_members,
    .tp_getset = core_getset,
    .tp_init = (initproc)core_init,
    .tp_new = PyType_GenericNew,
};

/* ---------------------------------------------------------------- module */

static struct PyModuleDef eventcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._eventcore",
    .m_doc = "Compiled event-core backend for the simulator kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__eventcore(void)
{
    PyObject *module, *backend;

    if (PyType_Ready(&EventCoreType) < 0)
        return NULL;
    backend = PyUnicode_InternFromString("compiled");
    if (backend == NULL)
        return NULL;
    if (PyDict_SetItemString(EventCoreType.tp_dict, "backend", backend) < 0) {
        Py_DECREF(backend);
        return NULL;
    }
    Py_DECREF(backend);

    module = PyModule_Create(&eventcore_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&EventCoreType);
    if (PyModule_AddObject(module, "EventCore",
                           (PyObject *)&EventCoreType) < 0) {
        Py_DECREF(&EventCoreType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "__version__",
                                   EVENTCORE_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
